"""Batched SPAIN construction vs the scalar specification.

:func:`repro.routing.spain.build_spain_layers` (one destination at a time over all of
its sources) must reproduce :func:`repro.kernels.reference.spain_layers_python`
(one Dijkstra per pair and pass, pairwise conflict checks, whole-union acyclicity
checks) exactly: every layer's edge set in layer order, and every pair's path list
in order.

The cases cover Figure 9's six families at tiny scale, seeds 0-2, three kinds of
destination set (``None``, Figure 9's commodity targets, a random subset),
``paths_per_pair`` 1, 2, 3 and 5 and ``max_layers`` None, 1 and 9.  Each family
meets each seed once; across the table every (destination kind, paths_per_pair)
combination and every ``max_layers`` value appears.  The scalar spec costs up to a
quarter of a second per destination on DF, so the slow families use a destination
subset, and ``None`` (every endpoint router) runs on the families with 50 or fewer
of them.
"""

import functools

import numpy as np
import pytest

from repro.experiments.common import topology_rng
from repro.kernels.reference import spain_layers_python
from repro.mcf.throughput import commodities_from_pattern
from repro.routing.spain import build_spain_layers
from repro.topologies import SizeClass, build, equivalent_jellyfish
from repro.topologies.base import Topology
from repro.traffic.worstcase import worst_case_pattern

#: Destinations kept where the scalar spec is slow (per-destination cost on DF is
#: about 5x Slim Fly's).
DESTINATION_CAP = {"DF": 5, "HX3": 12, "XP": 8}

#: Size of the random destination subsets.
RANDOM_SUBSET = 10

#: (family, seed, destination kind, paths_per_pair, max_layers)
CASES = [
    ("SF", 0, "none", 1, None),
    ("SF", 1, "fig09", 2, 9),
    ("SF", 2, "random", 5, 1),
    ("DF", 0, "fig09", 3, 9),
    ("DF", 1, "random", 1, 1),
    ("DF", 2, "fig09", 5, None),
    ("HX3", 0, "random", 2, 1),
    ("HX3", 1, "fig09", 1, None),
    ("HX3", 2, "random", 3, 9),
    ("XP", 0, "fig09", 5, None),
    ("XP", 1, "random", 3, 9),
    ("XP", 2, "fig09", 2, 1),
    ("FT3", 0, "none", 3, 9),
    ("FT3", 1, "none", 5, 1),
    ("FT3", 2, "random", 1, None),
    ("SF-JF", 0, "fig09", 3, 9),
    ("SF-JF", 1, "none", 2, None),
    ("SF-JF", 2, "random", 5, 1),
]


@functools.lru_cache(maxsize=None)
def fig09_topology(family: str, seed: int) -> Topology:
    """The topology Figure 9 builds for ``family`` at tiny scale and ``seed``."""
    if family == "SF-JF":
        return equivalent_jellyfish(build("SF", SizeClass.TINY, seed=seed), seed=seed + 1)
    return build(family, SizeClass.TINY, seed=seed)


def destinations_for(family: str, seed: int, kind: str):
    """The destination argument of one case (``None`` or a router list)."""
    topo = fig09_topology(family, seed)
    if kind == "none":
        return None
    if kind == "fig09":
        # Figure 9's SPAIN destinations: the targets of its tiny-scale commodities
        pattern = worst_case_pattern(topo, intensity=0.55, max_routers=24,
                                     rng=np.random.default_rng(seed))
        commodities = commodities_from_pattern(topo, pattern, max_commodities=60,
                                               rng=topology_rng(seed, family))
        targets = sorted({c.target for c in commodities})
    else:
        rng = np.random.default_rng(1000 + seed)
        targets = [int(t) for t in rng.choice(topo.num_routers, size=RANDOM_SUBSET,
                                              replace=False)]
    return targets[:DESTINATION_CAP.get(family, len(targets))]


def assert_matches_spec(topo, destinations, paths_per_pair, seed, max_layers):
    """Layer edge sets and per-pair paths equal the scalar spec's, in order."""
    layer_set, pair_paths = build_spain_layers(
        topo, paths_per_pair=paths_per_pair, destinations=destinations, seed=seed,
        max_layers=max_layers, return_paths=True)
    expected_layers, expected_paths = spain_layers_python(
        topo.num_routers, topo.edges, topo.endpoint_routers,
        topo.endpoint_routers if destinations is None else destinations,
        paths_per_pair=paths_per_pair, seed=seed, max_layers=max_layers)
    assert [set(layer.edges) for layer in layer_set] == expected_layers
    assert list(pair_paths) == list(expected_paths)
    assert pair_paths == expected_paths


@pytest.mark.parametrize("family, seed, kind, paths_per_pair, max_layers", CASES)
def test_matches_scalar_spec_on_fig09_families(family, seed, kind, paths_per_pair,
                                               max_layers):
    topo = fig09_topology(family, seed)
    destinations = destinations_for(family, seed, kind)
    assert_matches_spec(topo, destinations, paths_per_pair, seed, max_layers)


def test_case_table_covers_the_grid():
    families = {case[0] for case in CASES}
    assert families == {"SF", "DF", "HX3", "XP", "FT3", "SF-JF"}
    for family in families:
        assert sorted(case[1] for case in CASES if case[0] == family) == [0, 1, 2]
    assert {(case[2], case[3]) for case in CASES} == {
        (kind, k) for kind in ("none", "fig09", "random") for k in (1, 2, 3, 5)}
    assert {case[4] for case in CASES} == {None, 1, 9}


@pytest.mark.parametrize("paths_per_pair", [1, 2, 3])
def test_matches_scalar_spec_with_unreachable_sources(paths_per_pair):
    """Two components and an isolated router: unreachable sources get no paths."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4),
             (6, 7), (7, 8), (8, 9), (9, 6), (6, 8)]
    topo = Topology("two-components", 11, edges, 1)
    for max_layers in (None, 2):
        assert_matches_spec(topo, None, paths_per_pair, 3, max_layers)
        assert_matches_spec(topo, [10, 2, 7], paths_per_pair, 3, max_layers)
