"""Figure 7: distribution of non-minimal edge-disjoint path counts ``c_l(A, B)``.

For Slim Fly, Dragonfly, HyperX and an equivalent Jellyfish the paper plots the number
of disjoint paths of length at most l (l = 2, 3, 4) between random router pairs.  The
takeaway: at "almost minimal" lengths (diameter + 1) every topology offers at least
three disjoint paths for virtually all pairs, saturating towards the router radix.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.disjoint_paths import disjoint_path_distribution
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import build, equivalent_jellyfish

#: Topology families this scenario iterates (grid cells may select a subset).
TOPOLOGY_NAMES = ("SF", "SF-JF", "DF", "HX3")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    num_samples = ctx.scale.pick(60, 150, 250)
    ctx.meta["num_samples"] = num_samples
    built = {}

    def base(name):
        if name not in built:  # memo: "SF" and "SF-JF" share one SlimFly build
            built[name] = build(name, size_class)
        return built[name]

    builders = {
        "SF": lambda: base("SF"),
        "SF-JF": lambda: equivalent_jellyfish(base("SF"), seed=ctx.seed + 1),
        "DF": lambda: base("DF"),
        "HX3": lambda: base("HX3"),
    }
    for name in ctx.topologies:
        topo = builders[name]()
        # per-topology generator: a filtered run yields the same rows as a full one
        rng = ctx.rng(name)
        for length in (2, 3, 4):
            values = disjoint_path_distribution(topo, length, num_samples=num_samples,
                                                rng=rng)
            yield {
                "topology": name,
                "l": length,
                "mean": round(float(values.mean()), 2),
                "median": float(np.median(values)),
                "p1": float(np.percentile(values, 1)),
                "p99": float(np.percentile(values, 99)),
                "frac_ge3": round(float((values >= 3).mean()), 3),
                "mean_frac_of_radix": round(float(values.mean()) / topo.network_radix, 3),
            }


SCENARIO = ScenarioSpec(
    name="fig07",
    title="Non-minimal edge-disjoint path count distributions c_l(A,B)",
    paper_reference="Figure 7",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "l", "mean", "median", "p1", "p99", "frac_ge3",
                  "mean_frac_of_radix"),
    notes=(
        "Paper finding: counts saturate towards k' as l grows; at l = diameter+1 "
        "essentially all pairs have >= 3 disjoint paths.",
    ),
)
