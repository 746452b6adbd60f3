"""Figure 10: cost per endpoint of the compared topologies.

Evaluates the 100GbE cost model on the fair-comparison configurations and splits the
per-endpoint cost into switches, interconnect cables and endpoint links.  The shape to
reproduce: per-endpoint costs of SF, JF, XP, DF and FT3 are comparable (within ~2x)
with HyperX the most expensive (its high radix forces big switches).

The relative-cost column normalises against the cheapest topology of the *whole* run,
so the scenario aggregates across families and is not splittable.
"""

from __future__ import annotations

from repro.cost.model import cost_per_endpoint
from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.topologies import comparable_configurations, equivalent_jellyfish


def _plan(ctx: ScenarioContext):
    configs = comparable_configurations(ctx.scale.size_class(),
                                        topologies=["SF", "XP", "DF", "FT3", "HX3"],
                                        seed=ctx.seed)
    configs["SF-JF"] = equivalent_jellyfish(configs["SF"], seed=ctx.seed + 1)
    rows = []
    for name, topo in configs.items():
        breakdown = cost_per_endpoint(topo)
        row = breakdown.as_row()
        row["topology"] = name          # short name, not the constructor string
        rows.append(row)
    baseline = min(r["per_endpoint"] for r in rows)
    for row in rows:
        row["relative_cost"] = round(row["per_endpoint"] / baseline, 2)
        yield row


SCENARIO = ScenarioSpec(
    name="fig10",
    title="Cost per endpoint (switches / interconnect / endpoint links)",
    paper_reference="Figure 10",
    plan=_plan,
    base_columns=("topology", "per_endpoint", "relative_cost"),
    notes=(
        "Paper finding (Fig 10): costs per endpoint are comparable across SF/JF/XP/DF/FT3; "
        "HyperX is notably more expensive due to its very high router radix.",
    ),
)
