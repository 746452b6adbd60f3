"""Figure 14: FatPaths on TCP vs ECMP and LetFlow (mean and 99%-tail speedups).

For full-TCP "cloud" deployments the paper compares, per topology and flow size,
FatPaths with rho = 0.6 and rho = 1 (both n = 4 layers) against ECMP (static hashing)
and LetFlow (flowlet switching over minimal paths), reporting speedups over the ECMP
baseline.  The shape to reproduce: on SF and DF (no minimal-path diversity) ECMP and
LetFlow are ineffective and FatPaths with rho = 0.6 gives the largest gains (some flows
finish > 2.5x faster); on topologies with minimal-path diversity even rho = 1 FatPaths
adaptivity beats ECMP/LetFlow, with smaller margins.
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
from repro.sim.metrics import speedup_over_baseline
from repro.topologies import comparable_configurations, equivalent_jellyfish
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation

FLOW_SIZES = {"20K": 20_000, "200K": 200_000, "2M": 2_000_000}

#: Topology families this scenario iterates (the JF twin derives from the SF build;
#: per-family random streams keep split rows equal to unsplit rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3", "JF")

#: The four compared stacks (Figure 14's series), in row order.
STACK_VARIANTS = TCP_STACK_VARIANTS


def _families(scale):
    """Axis families that actually run at ``scale`` (the JF twin joins above tiny)."""
    names = scale.pick(["SF", "DF", "HX3"], ["SF", "DF", "HX3", "XP", "FT3"],
                       ["SF", "DF", "HX3", "XP", "FT3"])
    if scale.value != "tiny":
        names = names + ["JF"]
    return names


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    fraction = ctx.scale.pick(0.25, 0.3, 0.25)
    sizes = ctx.scale.pick(["200K", "2M"], list(FLOW_SIZES), list(FLOW_SIZES))
    for topo_name in ctx.topologies:
        if topo_name == "JF":
            base = comparable_configurations(size_class, topologies=["SF"],
                                             seed=ctx.seed)["SF"]
            topo = equivalent_jellyfish(base, seed=ctx.seed + 1)
        else:
            topo = comparable_configurations(size_class, topologies=[topo_name],
                                             seed=ctx.seed)[topo_name]
        rng = np.random.default_rng(ctx.seed)
        # One random permutation keeps endpoint NICs uncontended, so any FCT differences
        # come from in-network path collisions — the effect Figure 14 isolates.
        pattern = random_permutation(topo.num_endpoints, rng).subsample(fraction, rng)
        mapping = random_mapping(topo.num_endpoints, rng)
        # routing construction (layer sets, forwarding tables, candidate paths) is
        # shared across the flow-size loop; selectors stay fresh per cell
        cells = []
        for size_label in sizes:
            workload = uniform_size_workload(pattern, FLOW_SIZES[size_label])
            cells.extend(
                StackCell(stack=build_stack(topo, seed=ctx.seed,
                                            routing_cache=ctx.routing_cache, **kwargs),
                          workload=workload, mapping=mapping, seed=ctx.seed,
                          meta={"topology": topo_name, "flow_size": size_label,
                                "variant": variant})
                for variant, kwargs in STACK_VARIANTS.items())
        yield SimSweep(topology=topo, cells=cells,
                       aggregate=lambda results, cells=cells: grouped_baseline_rows(
                           cells, results, len(STACK_VARIANTS), _row))


def _row(cell: StackCell, result, baseline) -> dict:
    """One speedup row, relative to the group's ECMP baseline."""
    return {
        **cell.meta,
        "speedup_mean": round(speedup_over_baseline(result, baseline, "fct_mean"), 3),
        "speedup_p99": round(speedup_over_baseline(result, baseline, "fct_p99"), 3),
        "fct_mean_ms": round(result.summary()["fct_mean"] * 1e3, 4),
    }


SCENARIO = ScenarioSpec(
    name="fig14",
    title="TCP deployments: FatPaths vs ECMP and LetFlow speedups",
    paper_reference="Figure 14",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    scale_families=_families,
    base_columns=("topology", "flow_size", "variant", "speedup_mean", "speedup_p99",
                  "fct_mean_ms"),
    notes=(
        "Paper finding (Fig 14): FatPaths (rho=0.6, n=4) gives the largest mean and tail "
        "speedups on SF and DF; LetFlow helps tails but not SF/DF means; on high-diversity "
        "topologies rho=1 FatPaths adaptivity still beats ECMP/LetFlow.",
    ),
)
