"""Table V / Table IV (top): topology configuration parameters.

Prints, for every topology in a size class and the Jellyfish equivalent of each
(but the clique), the structural parameters the paper tabulates: router count,
endpoint count, network radix, concentration, diameter and edge density —
verifying the fair-comparison configurations.
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import comparable_configurations
from repro.topologies.configs import summary_row


def _plan(ctx: ScenarioContext):
    configs = comparable_configurations(
        ctx.scale.size_class(),
        topologies=["SF", "DF", "HX2", "HX3", "XP", "FT3", "CLIQUE"],
        include_jellyfish=True,
        seed=ctx.seed)
    for name, topo in configs.items():
        row = {"short_name": name}
        row.update(summary_row(topo))
        # measure the diameter on small instances (sampled on larger ones)
        sample = None if topo.num_routers <= 600 else 50
        row["measured_diameter"] = topo.diameter(sample=sample)
        yield row


SCENARIO = ScenarioSpec(
    name="tab05",
    title="Topology configuration parameters per size class",
    paper_reference="Table V (and Table IV topology parameters)",
    plan=_plan,
    base_columns=("short_name", "Nr", "N", "k_prime", "p", "k", "diameter_hint",
                  "edges", "edge_density", "measured_diameter"),
    notes=(
        "Medium scale reproduces the paper's Table IV parameters exactly for SF "
        "(Nr=722, k'=29), XP (1056, 32), HX3 (1331, 30) and DF (2064, 23).",
    ),
)
