"""Figure 17: stencil-with-barrier completion time, FatPaths vs ECMP and LetFlow (TCP).

The paper measures the total time to complete a bulk-synchronous stencil step (each
process exchanges messages with four off-diagonal neighbours, then a barrier) — i.e.
the completion time of the *slowest* flow — under ECMP, LetFlow and FatPaths with
rho = 0.6 and rho = 1.  The shape to reproduce: FatPaths shortens the total completion
time (the barrier waits for the stragglers) most on SF and DF, with speedups growing
for larger messages.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import random_mapping
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import (
    TCP_STACK_VARIANTS,
    StackCell,
    build_stack,
    grouped_baseline_rows,
)
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import stencil_pattern

FLOW_SIZES = {"20K": 20_000, "200K": 200_000, "2M": 2_000_000}

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")

#: The four compared stacks (Figure 17's series), in row order.
STACK_VARIANTS = TCP_STACK_VARIANTS


def _families(scale):
    """Axis families that actually run at ``scale``."""
    return scale.pick(["SF", "DF"], ["SF", "DF", "HX3", "XP", "FT3"],
                      ["SF", "DF", "HX3", "XP", "FT3"])


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    sizes = ctx.scale.pick(["200K"], ["20K", "200K", "2M"], ["20K", "200K", "2M"])
    fraction = ctx.scale.pick(0.2, 0.25, 0.2)
    for topo_name in ctx.topologies:
        topo = comparable_configurations(size_class, topologies=[topo_name],
                                         seed=ctx.seed)[topo_name]
        rng = np.random.default_rng(ctx.seed)
        pattern = stencil_pattern(topo.num_endpoints).subsample(fraction, rng)
        mapping = random_mapping(topo.num_endpoints, rng)
        cells = [
            StackCell(stack=build_stack(topo, seed=ctx.seed,
                                        routing_cache=ctx.routing_cache, **kwargs),
                      workload=uniform_size_workload(pattern, FLOW_SIZES[size_label]),
                      mapping=mapping, seed=ctx.seed,
                      meta={"topology": topo_name, "flow_size": size_label,
                            "variant": variant})
            for size_label in sizes for variant, kwargs in STACK_VARIANTS.items()]
        yield SimSweep(topology=topo, cells=cells,
                       aggregate=lambda results, cells=cells: grouped_baseline_rows(
                           cells, results, len(STACK_VARIANTS), _row))


def _completion(result) -> float:
    """Barrier semantics: a stencil step finishes when its last flow finishes."""
    return float(max(r.completion_time for r in result.records))


def _row(cell: StackCell, result, baseline) -> dict:
    """One completion row, relative to the group's ECMP baseline."""
    value = _completion(result)
    return {
        **cell.meta,
        "completion_ms": round(value * 1e3, 4),
        "speedup_vs_ecmp": round(_completion(baseline) / value, 3),
    }


SCENARIO = ScenarioSpec(
    name="fig17",
    title="Stencil + barrier completion time speedups (TCP)",
    paper_reference="Figure 17",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    scale_families=_families,
    base_columns=("topology", "flow_size", "variant", "completion_ms",
                  "speedup_vs_ecmp"),
    notes=(
        "Paper finding (Fig 17): FatPaths yields the best stencil completion times, e.g. "
        ">2.5x on SF for 200K flows and ~2x on XP for 2M flows; LetFlow can even hurt "
        "total completion time on JF-like topologies due to losses.",
    ),
)
