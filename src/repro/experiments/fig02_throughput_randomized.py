"""Figure 2: throughput per flow vs flow size, randomized workload, similar-cost networks.

The paper's headline figure: Slim Fly, Dragonfly, HyperX and Xpander running FatPaths
versus a fat tree running NDP, under a randomly mapped permutation workload with flow
sizes from 32 KiB to 2 MiB.  The shape to reproduce: the low-diameter topologies with
FatPaths match or beat the fat tree with NDP in both mean and 1%-tail throughput per
flow, with the gap widening for large flows.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import random_mapping
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack, tail_and_mean_throughput
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation

KIB = 1024

#: Topology families this scenario iterates (each family's samples draw from a
#: fresh per-family stream, so grid cells may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    flow_sizes = ctx.scale.pick([32 * KIB, 256 * KIB, 2048 * KIB],
                                [32 * KIB, 128 * KIB, 512 * KIB, 2048 * KIB],
                                [32 * KIB, 128 * KIB, 512 * KIB, 1024 * KIB, 2048 * KIB])
    ctx.meta["flow_sizes"] = list(flow_sizes)
    pattern_fraction = ctx.scale.pick(0.25, 0.3, 0.3)
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        stack_name = "ndp" if topo_name == "FT3" else "fatpaths"
        stack = build_stack(topo, stack_name, seed=ctx.seed,
                            routing_cache=ctx.routing_cache)
        rng = np.random.default_rng(ctx.seed)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(pattern_fraction, rng)
        mapping = random_mapping(topo.num_endpoints, rng)
        # one batched sweep over the flow sizes: the engine shares the topology link
        # space and the stack's candidate paths across all cells
        cells = [StackCell(stack=stack, workload=uniform_size_workload(pattern, size),
                           mapping=mapping, seed=ctx.seed,
                           meta={"topology": topo_name, "stack": stack_name,
                                 "flow_size_KiB": size // KIB})
                 for size in flow_sizes]
        yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    tail, mean = tail_and_mean_throughput(result)
    return {
        **cell.meta,
        "throughput_mean_MiBs": round(mean, 2),
        "throughput_tail1_MiBs": round(tail, 2),
        "fct_mean_ms": round(result.summary()["fct_mean"] * 1e3, 4),
        "flows": len(result),
    }


SCENARIO = ScenarioSpec(
    name="fig02",
    title="Throughput per flow vs flow size (randomized workload, similar cost)",
    paper_reference="Figure 2",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "flow_size_KiB", "throughput_mean_MiBs",
                  "throughput_tail1_MiBs", "fct_mean_ms", "flows"),
    notes=(
        "Paper finding (Fig 2): low-diameter topologies with FatPaths reach ~15% higher "
        "throughput (and ~2x lower latency) than a similar-cost fat tree with NDP, for "
        "randomized workloads; the advantage is largest for big flows.",
    ),
)
