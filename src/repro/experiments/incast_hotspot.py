"""Incast/hotspot scenario: many-to-one aggregation traffic across the topology set.

Beyond the paper's figures, this registry scenario stresses the transport/load-balance
stacks with the classic datacenter incast shape: ``fanin`` senders converge on each of
a handful of hot destinations (:func:`repro.traffic.patterns.incast_pattern`).  The
contention sits at the hotspots' ejection links, so the interesting comparison is how
much the in-network path diversity of FatPaths still helps tails versus the minimal-
path NDP baseline and static ECMP hashing once the bottleneck is the NIC.

Every family draws its hotspots from its own ``(seed, family)`` stream, so the grid
may fan this scenario into per-family cells (split rows == unsplit rows).
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack, tail_and_mean_throughput
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import incast_pattern

KIB = 1024

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")

#: Compared stacks, in row order.
STACKS = ("fatpaths", "ndp", "ecmp")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    flow_size = ctx.scale.pick(128 * KIB, 256 * KIB, 512 * KIB)
    num_hotspots = ctx.scale.pick(2, 4, 8)
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        rng = ctx.rng(topo_name)
        fanin = max(4, topo.num_endpoints // (8 * num_hotspots))
        pattern = incast_pattern(topo.num_endpoints, num_hotspots=num_hotspots,
                                 fanin=fanin, rng=rng)
        workload = uniform_size_workload(pattern, flow_size)
        cells = [StackCell(stack=build_stack(topo, stack_name, seed=ctx.seed,
                                             routing_cache=ctx.routing_cache),
                           workload=workload, seed=ctx.seed,
                           meta={"topology": topo_name, "stack": stack_name,
                                 "hotspots": num_hotspots, "fanin": fanin})
                 for stack_name in STACKS]
        yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    tail, mean = tail_and_mean_throughput(result)
    summary = result.summary(percentiles=(50, 99))
    return {
        **cell.meta,
        "flows": len(result),
        "throughput_mean_MiBs": round(mean, 2),
        "throughput_tail1_MiBs": round(tail, 2),
        "fct_p50_ms": round(summary["fct_p50"] * 1e3, 4),
        "fct_p99_ms": round(summary["fct_p99"] * 1e3, 4),
    }


SCENARIO = ScenarioSpec(
    name="incast",
    title="Incast/hotspot aggregation traffic: FatPaths vs NDP and ECMP",
    paper_reference="— (registry scenario beyond the paper)",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "hotspots", "fanin", "flows",
                  "throughput_mean_MiBs", "throughput_tail1_MiBs", "fct_p50_ms",
                  "fct_p99_ms"),
    notes=(
        "Expected shape: the hotspots' ejection links bound every stack's mean, so the "
        "stacks differ mainly in tail FCT — adaptive multipathing resolves the residual "
        "in-network collisions that static hashing leaves.",
    ),
)
