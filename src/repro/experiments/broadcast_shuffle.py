"""Broadcast-shuffle scenario: stage-to-stage all-to-all traffic across the topology set.

Beyond the paper's figures, this registry scenario runs the map/reduce-style shuffle
shape (:func:`repro.traffic.patterns.broadcast_shuffle_pattern`): endpoints form
consecutive groups and every member of group g broadcasts to the whole next group.
The pattern is ``group_size``-times oversubscribed and highly structured, so — unlike
the randomized permutations of Figure 2 — whole routers exchange with whole routers
and the minimal-path stacks collide heavily on low-diameter topologies, while
FatPaths' non-minimal layers spread the bursts.

The base pattern is deterministic; only the per-family intensity subsampling draws
randomness, from each family's own ``(seed, family)`` stream, so the grid may fan
this scenario into per-family cells (split rows == unsplit rows).
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack, tail_and_mean_throughput
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import broadcast_shuffle_pattern

KIB = 1024

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")

#: Compared stacks, in row order.
STACKS = ("fatpaths", "ndp", "letflow")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    flow_size = ctx.scale.pick(64 * KIB, 256 * KIB, 512 * KIB)
    group_size = ctx.scale.pick(4, 6, 8)
    fraction = ctx.scale.pick(0.15, 0.2, 0.2)
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        rng = ctx.rng(topo_name)
        pattern = broadcast_shuffle_pattern(topo.num_endpoints, group_size=group_size)
        pattern = pattern.subsample(fraction, rng)
        workload = uniform_size_workload(pattern, flow_size)
        cells = [StackCell(stack=build_stack(topo, stack_name, seed=ctx.seed,
                                             routing_cache=ctx.routing_cache),
                           workload=workload, seed=ctx.seed,
                           meta={"topology": topo_name, "stack": stack_name,
                                 "group_size": group_size})
                 for stack_name in STACKS]
        yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    tail, mean = tail_and_mean_throughput(result)
    summary = result.summary(percentiles=(99,))
    return {
        **cell.meta,
        "flows": len(result),
        "throughput_mean_MiBs": round(mean, 2),
        "throughput_tail1_MiBs": round(tail, 2),
        "fct_mean_ms": round(summary["fct_mean"] * 1e3, 4),
        "fct_p99_ms": round(summary["fct_p99"] * 1e3, 4),
    }


SCENARIO = ScenarioSpec(
    name="shuffle",
    title="Broadcast-shuffle (stage all-to-all): FatPaths vs NDP and LetFlow",
    paper_reference="— (registry scenario beyond the paper)",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "group_size", "flows", "throughput_mean_MiBs",
                  "throughput_tail1_MiBs", "fct_mean_ms", "fct_p99_ms"),
    notes=(
        "Expected shape: the structured group broadcasts collide on low-diameter "
        "topologies' single shortest paths, so FatPaths' non-minimal layers beat the "
        "minimal-path stacks most on SF/DF — the skewed-traffic story of Figure 11 on "
        "a shuffle workload.",
    ),
)
