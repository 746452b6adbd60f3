"""Figure 19 (appendix): edge density and router radix as a function of network size.

For every topology family the paper plots (a) the edge density — cables (including
endpoint links) per endpoint — and (b) the router radix k needed to reach a given
endpoint count N.  Takeaways: edge density is asymptotically constant per family and
grows with diameter (DF needs the most cables); fat trees reach a given N with the
smallest radix at the cost of a higher diameter; SF needs a lower radix than other
diameter-2 networks.

Rows are ordered size-class-major (the paper's x axis), so the scenario is kept as
one unit rather than split per family.
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import SizeClass, build


def _plan(ctx: ScenarioContext):
    classes = {
        "tiny": [SizeClass.TINY, SizeClass.SMALL],
        "small": [SizeClass.TINY, SizeClass.SMALL, SizeClass.MEDIUM],
        "medium": [SizeClass.TINY, SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE],
    }[ctx.scale.value]
    for size_class in classes:
        for name in ("SF", "DF", "HX2", "HX3", "FT3"):
            topo = build(name, size_class, seed=ctx.seed)
            yield {
                "topology": name,
                "size_class": size_class.value,
                "N": topo.num_endpoints,
                "edge_density": round(topo.edge_density(), 3),
                "router_radix": topo.router_radix,
                "diameter": topo.diameter_hint,
            }


SCENARIO = ScenarioSpec(
    name="fig19",
    title="Edge density and router radix vs. network size",
    paper_reference="Figure 19 (appendix)",
    plan=_plan,
    base_columns=("topology", "size_class", "N", "edge_density", "router_radix",
                  "diameter"),
    notes=(
        "Paper finding: edge density is ~2 and asymptotically constant per family, "
        "higher for higher-diameter networks (DF); FT scales N with the smallest radix; "
        "SF needs a lower radix than HyperX for the same N.",
    ),
)
