"""Figure 11: skewed adversarial traffic — FatPaths vs minimal-path NDP baseline.

On a skewed (non-randomized) off-diagonal pattern that forces whole routers to talk to
whole routers, the paper compares each low-diameter topology running FatPaths against
the same topology running the NDP baseline restricted to minimal paths.  The shape to
reproduce: non-minimal layered routing improves throughput/FCT dramatically on SF and
DF (up to ~30x FCT in the paper), modestly on HyperX (which already has minimal-path
diversity), and the fat tree serves as the reference.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack, tail_and_mean_throughput
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import adversarial_offdiagonal

KIB = 1024

#: Topology families this scenario iterates (grid cells may select a subset; each
#: family's sampling stream is independent, so filtered rows equal full-run rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    flow_sizes = ctx.scale.pick([64 * KIB, 1024 * KIB], [32 * KIB, 256 * KIB, 2048 * KIB],
                                [32 * KIB, 256 * KIB, 2048 * KIB])
    fraction = ctx.scale.pick(0.3, 0.3, 0.25)
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        rng = np.random.default_rng(ctx.seed)
        pattern = adversarial_offdiagonal(topo.num_endpoints, topo.concentration)
        pattern = pattern.subsample(fraction, rng)
        stacks = ["ndp"] if topo_name == "FT3" else ["fatpaths", "ndp"]
        cells = []
        for stack_name in stacks:
            stack = build_stack(topo, stack_name, seed=ctx.seed,
                                routing_cache=ctx.routing_cache)
            cells.extend(
                StackCell(stack=stack, workload=uniform_size_workload(pattern, size),
                          seed=ctx.seed,
                          meta={"topology": topo_name, "stack": stack_name,
                                "flow_size_KiB": size // KIB})
                for size in flow_sizes)
        yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    tail, mean = tail_and_mean_throughput(result)
    return {
        **cell.meta,
        "throughput_mean_MiBs": round(mean, 2),
        "throughput_tail1_MiBs": round(tail, 2),
        "fct_mean_ms": round(result.summary()["fct_mean"] * 1e3, 4),
        "fct_p99_ms": round(result.summary()["fct_p99"] * 1e3, 4),
    }


SCENARIO = ScenarioSpec(
    name="fig11",
    title="Skewed adversarial traffic: FatPaths vs minimal-path baseline",
    paper_reference="Figure 11",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "flow_size_KiB", "throughput_mean_MiBs",
                  "throughput_tail1_MiBs", "fct_mean_ms", "fct_p99_ms"),
    notes=(
        "Paper finding (Fig 11): FatPaths' non-minimal multipathing outperforms the "
        "minimal-path NDP baseline on every low-diameter topology under skewed traffic; "
        "the gain is largest on SF/DF (single shortest paths) and smallest on HyperX.",
    ),
)
