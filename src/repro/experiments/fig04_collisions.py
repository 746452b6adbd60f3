"""Figure 4: histogram of colliding paths per router pair.

The paper plots, for a clique (D=1), Slim Fly (D=2) and Dragonfly (D=3) with
``p = k'/D``, how many router pairs carry 1, 2, 3, ... colliding flows under five
traffic patterns (random permutation, off-diagonal, shuffle, four parallel
permutations, and a 4-point stencil), all randomly mapped.  The takeaway: for D >= 2
fewer than 1% of router pairs see four or more collisions, so three disjoint paths per
router pair suffice; the clique needs many more.

Each family draws its mapping and patterns from its own ``(seed, family)`` stream
(:meth:`ScenarioContext.rng`), so the scenario declares a ``topology_names`` split
axis: a per-family grid cell reproduces exactly the rows of the full run.
"""

from __future__ import annotations

from repro.core.mapping import random_mapping
from repro.diversity.collisions import collision_histogram, fraction_with_at_least, max_collisions
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import build
from repro.traffic.patterns import all_patterns

#: Topology families of the split axis (paper labels live in ``_LABELS``).
TOPOLOGY_NAMES = ("CLIQUE", "SF", "DF")

_LABELS = {"CLIQUE": "Clique (D=1)", "SF": "Slim Fly (D=2)", "DF": "Dragonfly (D=3)"}


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    for family in ctx.topologies:
        topo = build(family, size_class)
        rng = ctx.rng(family)
        n = topo.num_endpoints
        mapping = random_mapping(n, rng)
        patterns = all_patterns(n, topo.concentration, rng)
        for pattern_name, pattern in patterns.items():
            hist = collision_histogram(topo, pattern.pairs, mapping)
            yield {
                "topology": _LABELS[family],
                "pattern": pattern_name,
                "max_collisions": max_collisions(hist),
                "frac_pairs_ge4": round(fraction_with_at_least(hist, 4), 4),
                "frac_pairs_ge9": round(fraction_with_at_least(hist, 9), 4),
                "router_pairs_with_traffic": sum(hist.values()),
            }


SCENARIO = ScenarioSpec(
    name="fig04",
    title="Collision multiplicity per router pair under randomly mapped patterns",
    paper_reference="Figure 4",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "pattern", "max_collisions", "frac_pairs_ge4",
                  "frac_pairs_ge9", "router_pairs_with_traffic"),
    notes=(
        "Paper finding: for D>=2 fewer than 1% of router pairs see >=4 collisions "
        "even for 4x-oversubscribed patterns; the D=1 clique sees >=9 collisions for "
        ">1% of pairs.",
    ),
)
