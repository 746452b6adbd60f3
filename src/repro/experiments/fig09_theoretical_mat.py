"""Figure 9: theoretical maximum achievable throughput of layered routing schemes.

Using the worst-case (maximum-weight-matching) traffic pattern at intensity 0.55, the
paper compares the LP-derived maximum achievable throughput of FatPaths layered routing
(interference-minimising variant) against SPAIN, PAST and k-shortest-paths on SF, DF,
HX3, XP, FT3 and SF-JF.  The shape to reproduce: FatPaths matches or beats the
baselines on the low-diameter topologies; SPAIN (designed for Clos) is closest on the
fat tree; PAST (single path) is the weakest.

Instance sizes are scaled down relative to the paper (the LPs and SPAIN's
precomputation grow quickly); the comparison is relative throughput per topology.
Each family's worst-case matching and commodity subsampling draw from their own
deterministic per-``(seed, family)`` streams, so the scenario declares a
``topology_names`` split axis: a per-family grid cell reproduces exactly the rows
of the full run.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FatPathsConfig
from repro.core.layers import interference_minimizing_layers, random_edge_sampling_layers
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.mcf.throughput import commodities_from_pattern, scheme_max_throughput
from repro.routing import KShortestPathsRouting, PastRouting, SpainRouting
from repro.routing.base import LayerSetRouting
from repro.topologies import build, equivalent_jellyfish
from repro.traffic.worstcase import worst_case_pattern

#: Equal layer budget for all layered schemes.
NUM_LAYERS = 9

#: Fraction of the worst-case matching's pairs that communicate (the paper's 0.55).
INTENSITY = 0.55

#: Topology families of the split axis (SF-JF is the Jellyfish twin of SF).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3", "SF-JF")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    max_routers = ctx.scale.pick(24, 40, 60)      # matching size for the worst-case pattern
    max_commodities = ctx.scale.pick(60, 120, 200)
    ctx.meta["intensity"] = INTENSITY
    ctx.note(
        f"All layered schemes use the same layer budget (n = {NUM_LAYERS}); the "
        f"worst-case matching is restricted to {max_routers} routers and "
        f"{max_commodities} commodities for LP tractability; the interference-minimising "
        "constructor prioritises the router pairs stressed by the pattern (the paper's "
        "M-bounded pair processing).")

    for name in ctx.topologies:
        if name == "SF-JF":
            topo = equivalent_jellyfish(build("SF", size_class, seed=ctx.seed),
                                        seed=ctx.seed + 1)
        else:
            topo = build(name, size_class, seed=ctx.seed)
        # per-family streams: the worst-case matching already used a fresh
        # per-family generator; commodity subsampling now does too
        pattern = worst_case_pattern(topo, intensity=INTENSITY, max_routers=max_routers,
                                     rng=np.random.default_rng(ctx.seed))
        commodities = commodities_from_pattern(topo, pattern,
                                               max_commodities=max_commodities,
                                               rng=ctx.rng(name))
        spain_destinations = sorted({c.target for c in commodities})
        commodity_pairs = [(c.source, c.target) for c in commodities]
        random_cfg = FatPathsConfig(num_layers=NUM_LAYERS, rho=0.6, seed=ctx.seed)
        interference_cfg = random_cfg.with_(layer_algorithm="interference")
        schemes = {
            "fatpaths_interference": LayerSetRouting(
                topo,
                interference_minimizing_layers(topo, interference_cfg,
                                               candidate_pairs=commodity_pairs),
                name="fatpaths_interference"),
            "fatpaths_random": LayerSetRouting(
                topo, random_edge_sampling_layers(topo, random_cfg),
                name="fatpaths_random"),
            "spain": SpainRouting(topo, paths_per_pair=3, destinations=spain_destinations,
                                  seed=ctx.seed, max_layers=NUM_LAYERS),
            "past": PastRouting(topo, seed=ctx.seed),
            "ksp": KShortestPathsRouting(topo, k=5),
        }
        throughputs = {}
        for scheme_name, routing in schemes.items():
            throughputs[scheme_name] = scheme_max_throughput(topo, commodities, routing)
        best = max(throughputs.values()) or 1.0
        row = {"topology": name, "N": topo.num_endpoints, "commodities": len(commodities)}
        for scheme_name, value in throughputs.items():
            row[scheme_name] = round(value, 4)
            row[f"{scheme_name}_rel"] = round(value / best, 3)
        yield row


SCENARIO = ScenarioSpec(
    name="fig09",
    title="LP maximum achievable throughput: FatPaths vs SPAIN/PAST/k-SP",
    paper_reference="Figure 9",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "N", "commodities", "fatpaths_interference",
                  "fatpaths_random", "spain", "past", "ksp"),
    notes=(
        "Paper finding (Fig 9): FatPaths layered routing achieves the highest throughput "
        "on the low-diameter topologies; SPAIN is tuned for Clos and weakest elsewhere; "
        "PAST (single path) is the weakest overall; the interference-minimising variant "
        "improves on random edge sampling.",
    ),
)
