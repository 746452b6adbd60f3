"""Figure 8: distribution of Path Interference at various distances.

The paper samples router 4-tuples and plots the distribution of the interference
``I_ac,bd`` at path-length limits l = 2..5 for SF, DF, HX, FT3 and Jellyfish
equivalents.  Takeaways: PI is small at l=2 (few paths exist, and they rarely overlap),
peaks at l=3..4 (the hop counts most router pairs actually use), nearly vanishes at
l=5, and is exactly zero for fat trees.

Each family samples its 4-tuples from its own ``(seed, family)`` stream
(:meth:`ScenarioContext.rng`), so the scenario declares a ``topology_names`` split
axis: a per-family grid cell reproduces exactly the rows of the full run.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.interference import interference_distribution
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import build, equivalent_jellyfish

#: Topology families of the split axis (SF-JF is the Jellyfish twin of SF).
TOPOLOGY_NAMES = ("SF", "SF-JF", "DF", "HX3", "FT3")


def _build(family: str, size_class, seed: int):
    """One family's topology (the Jellyfish twin derives from a fresh SF build)."""
    if family == "SF-JF":
        return equivalent_jellyfish(build("SF", size_class), seed=seed + 1)
    return build(family, size_class)


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    num_samples = ctx.scale.pick(40, 120, 250)
    ctx.meta["num_samples"] = num_samples
    for family in ctx.topologies:
        topo = _build(family, size_class, ctx.seed)
        rng = ctx.rng(family)
        for length in (2, 3, 4, 5):
            values = interference_distribution(topo, length, num_samples=num_samples,
                                               rng=rng)
            yield {
                "topology": family,
                "l": length,
                "mean": round(float(values.mean()), 3),
                "p999": float(np.percentile(values, 99.9)),
                "frac_zero": round(float((values == 0).mean()), 3),
                "mean_frac_of_radix": round(float(values.mean()) / topo.network_radix, 3),
            }


SCENARIO = ScenarioSpec(
    name="fig08",
    title="Path-interference distributions at l = 2..5",
    paper_reference="Figure 8",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "l", "mean", "p999", "frac_zero", "mean_frac_of_radix"),
    notes=(
        "Paper finding: most interference occurs at l=3 and l=4; FT3 shows zero PI due "
        "to symmetry and high path diversity; little PI remains at l=5.",
    ),
)
