"""Tests for the baseline routing schemes (ECMP, k-SP, Valiant, SPAIN, PAST, Table I)."""

import numpy as np
import pytest

from repro.core.config import FatPathsConfig
from repro.core.layers import random_edge_sampling_layers
from repro.routing import (
    EcmpRouting,
    KShortestPathsRouting,
    PastRouting,
    SpainRouting,
    ValiantRouting,
)
from repro.routing.base import LayerSetRouting
from repro.routing.comparison import (
    FEATURES,
    ROUTING_SCHEME_TABLE,
    YES,
    feature_table,
    only_fully_supporting_scheme,
)
from repro.kernels.cache import kernels_for
from repro.kernels.reference import is_acyclic_python, vlan_compatible_python
from repro.routing.spain import build_spain_layers


def _assert_valid_paths(topology, paths, s, t):
    adjacency = topology.adjacency()
    for path in paths:
        assert path[0] == s and path[-1] == t
        for u, v in zip(path, path[1:]):
            assert v in adjacency[u]


class TestEcmp:
    def test_minimal_paths_only(self, sf_tiny):
        routing = EcmpRouting(sf_tiny, max_paths=4, seed=0)
        dist = sf_tiny.bfs_distances(0)
        for t in (7, 20, 45):
            paths = routing.router_paths(0, t)
            _assert_valid_paths(sf_tiny, paths, 0, t)
            for p in paths:
                assert len(p) - 1 == dist[t]

    def test_single_minimal_path_on_slim_fly(self, sf_tiny):
        """On SF most pairs have exactly one shortest path, so ECMP degenerates."""
        routing = EcmpRouting(sf_tiny, max_paths=8, seed=0)
        rng = np.random.default_rng(0)
        singles = 0
        total = 40
        for _ in range(total):
            s, t = rng.choice(sf_tiny.num_routers, size=2, replace=False)
            if len(routing.router_paths(int(s), int(t))) == 1:
                singles += 1
        assert singles / total > 0.5

    def test_fat_tree_has_multiple_minimal_paths(self, ft_tiny):
        routing = EcmpRouting(ft_tiny, max_paths=8, seed=0)
        edge_routers = ft_tiny.endpoint_routers
        # two edge switches in different pods
        s, t = edge_routers[0], edge_routers[-1]
        assert len(routing.router_paths(s, t)) >= 3

    def test_same_router(self, sf_tiny):
        assert EcmpRouting(sf_tiny).router_paths(3, 3) == [[3]]

    def test_cache(self, sf_tiny):
        routing = EcmpRouting(sf_tiny, seed=0)
        assert routing.router_paths(0, 10) is routing.router_paths(0, 10)

    def test_max_paths_validation(self, sf_tiny):
        with pytest.raises(ValueError):
            EcmpRouting(sf_tiny, max_paths=0)


class TestKsp:
    def test_paths_sorted_by_length(self, sf_tiny):
        routing = KShortestPathsRouting(sf_tiny, k=5)
        paths = routing.router_paths(0, 37)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        assert len(paths) == 5
        _assert_valid_paths(sf_tiny, paths, 0, 37)

    def test_includes_nonminimal_paths(self, sf_tiny):
        routing = KShortestPathsRouting(sf_tiny, k=4)
        paths = routing.router_paths(0, 37)
        dmin = len(paths[0])
        assert any(len(p) > dmin for p in paths)

    def test_k_validation(self, sf_tiny):
        with pytest.raises(ValueError):
            KShortestPathsRouting(sf_tiny, k=0)

    def test_same_router(self, sf_tiny):
        assert KShortestPathsRouting(sf_tiny).router_paths(2, 2) == [[2]]


class TestValiant:
    def test_paths_valid_and_nonminimal(self, sf_tiny):
        routing = ValiantRouting(sf_tiny, num_paths=4, seed=0)
        paths = routing.router_paths(0, 37)
        _assert_valid_paths(sf_tiny, paths, 0, 37)
        assert 1 <= len(paths) <= 4

    def test_average_length_roughly_doubles(self, sf_tiny):
        """VLB approximately doubles the average path length vs minimal routing."""
        vlb = ValiantRouting(sf_tiny, num_paths=3, seed=0)
        ecmp = EcmpRouting(sf_tiny, seed=0)
        assert vlb.average_path_length(num_samples=60) > 1.4 * ecmp.average_path_length(num_samples=60)

    def test_num_paths_validation(self, sf_tiny):
        with pytest.raises(ValueError):
            ValiantRouting(sf_tiny, num_paths=0)

    def test_hop_draw_matches_generator_choice(self, sf_tiny):
        """A hop drawn by index picks what ``rng.choice(candidates)`` picks and
        leaves the generator in the same state, so VLB paths keep their stream."""
        adjacency = sf_tiny.adjacency()
        dist = kernels_for(sf_tiny).distance_matrix()
        routers = range(sf_tiny.num_routers)
        hops = [[v for v in adjacency[u] if dist[v, t] == dist[u, t] - 1]
                for u in routers for t in routers if u != t]
        hops += [list(range(100, 100 + n)) for n in range(1, 41)]
        by_choice, by_index = np.random.default_rng(11), np.random.default_rng(11)
        for candidates in hops:
            assert int(by_choice.choice(candidates)) \
                == candidates[int(by_index.integers(0, len(candidates)))]
        assert by_choice.bit_generator.state == by_index.bit_generator.state

    def test_paths_equal_choice_drawn_paths(self, sf_tiny):
        """Whole VLB path sets equal those of hops drawn by ``rng.choice``: the
        intermediate and hop draws share one stream, which stays in step."""

        class ChoiceDrawnValiant(ValiantRouting):
            def _minimal_path(self, source, target):
                dist = self._distances_from(target)
                path = [source]
                while path[-1] != target:
                    candidates = [v for v in self._adj[path[-1]]
                                  if dist[v] == dist[path[-1]] - 1]
                    path.append(int(self._rng.choice(candidates)))
                return path

        by_index = ValiantRouting(sf_tiny, num_paths=4, seed=5)
        by_choice = ChoiceDrawnValiant(sf_tiny, num_paths=4, seed=5)
        for s in range(sf_tiny.num_routers):
            for t in range(0, sf_tiny.num_routers, 3):
                assert by_index.router_paths(s, t) == by_choice.router_paths(s, t)


class TestLayerSetRouting:
    @pytest.mark.parametrize("family", ["sf_tiny", "df_tiny", "hx_tiny", "xp_tiny", "ft_tiny"])
    def test_one_path_per_layer_with_full_layer_fallback(self, family, request):
        """Each layer contributes its within-layer path, or the full layer's path
        where the sparsified layer cannot reach the target; duplicates are dropped
        in layer order.  At ``rho = 0.3`` every family needs the fallback."""
        topo = request.getfixturevalue(family)
        routing = LayerSetRouting(topo, random_edge_sampling_layers(
            topo, FatPathsConfig(num_layers=5, rho=0.3, seed=0)))
        tables = routing.tables
        fallbacks = 0
        for s, t in np.random.default_rng(3).integers(0, topo.num_routers, size=(60, 2)):
            s, t = int(s), int(t)
            if s == t:
                assert routing.router_paths(s, t) == [[s]]
                continue
            expected = []
            for layer in range(routing.num_layers):
                path = tables.path(layer, s, t, fallback_to_full=False)
                if path is None:
                    fallbacks += 1
                    path = tables.path(0, s, t, fallback_to_full=False)
                if path not in expected:
                    expected.append(path)
            got = routing.router_paths(s, t)
            assert got == expected
            _assert_valid_paths(topo, got, s, t)
        assert fallbacks > 0

    def test_repeated_calls_return_fresh_equal_paths(self, sf_tiny):
        """Paths are rebuilt from the forwarding tables on every call: editing a
        returned list changes nothing a later call returns."""
        routing = LayerSetRouting(sf_tiny, random_edge_sampling_layers(
            sf_tiny, FatPathsConfig(num_layers=3, rho=0.7, seed=0)))
        first = routing.router_paths(0, 10)
        expected = [list(p) for p in first]
        first[0].append(-1)
        first.append([0, 10])
        assert routing.router_paths(0, 10) == expected


class TestSpain:
    def test_vlan_compatibility(self):
        assert vlan_compatible_python([0, 1, 2, 9], [3, 1, 2, 9])
        assert not vlan_compatible_python([0, 1, 2, 9], [3, 1, 4, 9])

    def test_acyclicity_check(self):
        assert is_acyclic_python(4, {(0, 1), (1, 2), (2, 3)})
        assert not is_acyclic_python(3, {(0, 1), (1, 2), (0, 2)})

    def test_layers_are_forests(self, sf_tiny):
        layer_set = build_spain_layers(sf_tiny, paths_per_pair=2,
                                       destinations=list(range(0, 50, 10)), seed=0)
        for layer in layer_set:
            assert is_acyclic_python(sf_tiny.num_routers, set(layer.edges))
            assert len(layer) <= sf_tiny.num_routers - 1

    def test_routing_returns_valid_paths(self, sf_tiny):
        routing = SpainRouting(sf_tiny, paths_per_pair=2,
                               destinations=list(range(0, 50, 10)), seed=0)
        paths = routing.router_paths(3, 27)
        assert len(paths) >= 1
        _assert_valid_paths(sf_tiny, paths, 3, 27)

    def test_max_layers_cap(self, sf_tiny):
        layer_set = build_spain_layers(sf_tiny, paths_per_pair=2,
                                       destinations=list(range(0, 50, 10)),
                                       seed=0, max_layers=3)
        assert len(layer_set) <= 3

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_layers": 0}, "max_layers"),
        ({"max_layers": -2}, "max_layers"),
        ({"paths_per_pair": 0}, "paths_per_pair"),
        ({"destinations": [0, 10, 20, 10]}, "destinations"),
        ({"destinations": [0, 10, 999]}, "destinations"),
        ({"destinations": [-1, 10]}, "destinations"),
    ])
    def test_rejects_bad_arguments(self, sf_tiny, kwargs, match):
        arguments = {"paths_per_pair": 2, "destinations": list(range(0, 50, 10)), **kwargs}
        with pytest.raises(ValueError, match=match):
            build_spain_layers(sf_tiny, **arguments)
        with pytest.raises(ValueError, match=match):
            SpainRouting(sf_tiny, **arguments)

    def test_needs_more_layers_than_fatpaths(self, sf_tiny):
        """SPAIN's forest layers force many more layers than FatPaths' O(1) (paper §VI-B)."""
        layer_set = build_spain_layers(sf_tiny, paths_per_pair=3,
                                       destinations=list(range(0, 50, 5)), seed=0)
        assert len(layer_set) > 4


class TestPast:
    def test_single_path_per_pair(self, sf_tiny):
        routing = PastRouting(sf_tiny, seed=0)
        paths = routing.router_paths(0, 41)
        assert len(paths) == 1
        _assert_valid_paths(sf_tiny, paths, 0, 41)

    def test_shortest_variant_is_minimal(self, sf_tiny):
        routing = PastRouting(sf_tiny, variant="shortest", seed=0)
        dist = sf_tiny.bfs_distances(17)
        for s in (0, 5, 33):
            path = routing.router_path(s, 17)
            assert len(path) - 1 == dist[s]

    def test_nonminimal_variant_valid(self, sf_tiny):
        routing = PastRouting(sf_tiny, variant="nonminimal", seed=0)
        for s, t in [(0, 17), (5, 40), (22, 3)]:
            path = routing.router_path(s, t)
            _assert_valid_paths(sf_tiny, [path], s, t)

    def test_tree_count_is_linear_in_destinations(self, sf_tiny):
        assert PastRouting(sf_tiny).tree_count() == sf_tiny.num_routers

    def test_variant_validation(self, sf_tiny):
        with pytest.raises(ValueError):
            PastRouting(sf_tiny, variant="magic")

    def test_identity_pair(self, sf_tiny):
        assert PastRouting(sf_tiny).router_path(4, 4) == [4]


class TestComparisonTable:
    def test_fatpaths_is_unique_full_scheme(self):
        assert only_fully_supporting_scheme() == "FatPaths"

    def test_every_scheme_has_all_features(self):
        for scheme in ROUTING_SCHEME_TABLE.values():
            for f in FEATURES:
                assert getattr(scheme, f) in ("yes", "limited", "no")

    def test_known_rows(self):
        assert ROUTING_SCHEME_TABLE["ECMP"].NP == "no"
        assert ROUTING_SCHEME_TABLE["PAST"].MP == "no"
        assert ROUTING_SCHEME_TABLE["SPAIN"].MP == YES

    def test_feature_table_rows(self):
        rows = feature_table(sort_by_score=True)
        assert rows[0]["name"] == "FatPaths"
        assert len(rows) == len(ROUTING_SCHEME_TABLE)
