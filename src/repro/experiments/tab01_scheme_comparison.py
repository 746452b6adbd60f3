"""Table I: support for path diversity across routing schemes.

A static (but checked) reproduction of the paper's feature comparison: for each scheme,
which of the seven path-diversity aspects (SP, NP, SM, MP, DP, ALB, AT) it supports.
FatPaths is the only scheme supporting all of them.
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.routing.comparison import FEATURES, feature_table, only_fully_supporting_scheme


def _plan(ctx: ScenarioContext):
    ctx.note(f"Aspects: {', '.join(FEATURES)} (see repro.routing.comparison for "
             "definitions).")
    ctx.note(f"Only scheme supporting every aspect: {only_fully_supporting_scheme()}.")
    yield from feature_table(sort_by_score=True)


SCENARIO = ScenarioSpec(
    name="tab01",
    title="Path-diversity feature support across routing schemes",
    paper_reference="Table I",
    plan=_plan,
    base_columns=("name",),
)
