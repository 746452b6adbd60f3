"""Failure/recovery scenario: degraded-mode routing under link outages.

The paper motivates layered routing by its ability to route *around* trouble in
low-diameter topologies (§II); this registry scenario exercises exactly that: a
random fraction of links fails mid-run and is restored later
(:func:`repro.sim.faults.sample_link_faults`), displaced flows are re-placed
through each stack's path selector, and the rows report both the usual
throughput/FCT metrics and the resilience counters (reroutes, stalls) the fault
machinery emits.  Adaptive multipathing should re-spread displaced flows over the
surviving candidates, while static hashing keeps colliding on them.

Every family draws its workload *and* its failed-link sample from its own
``(seed, family)`` stream, so the grid may fan this scenario into per-family cells
(split rows == unsplit rows).  The full fault model is documented in
``docs/resilience.md``.
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack, tail_and_mean_throughput
from repro.sim.faults import sample_link_faults
from repro.sim.simconfig import FlowSimConfig
from repro.topologies import comparable_configurations
from repro.traffic.flows import poisson_workload
from repro.traffic.patterns import random_permutation

KIB = 1024

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "DF", "HX3", "XP", "FT3")

#: Compared stacks, in row order.
STACKS = ("fatpaths", "ndp", "ecmp")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    fractions = ctx.scale.pick((0.05,), (0.02, 0.08), (0.02, 0.05, 0.10))
    duration = ctx.scale.pick(0.004, 0.008, 0.012)
    arrival_rate = ctx.scale.pick(150.0, 200.0, 250.0)
    # flows must live long enough to *witness* the outage window, or no rerouting
    # ever happens: multi-MiB transfers overlap the fail/restore epochs
    flow_size = ctx.scale.pick(1024 * KIB, 2048 * KIB, 2048 * KIB)
    # the outage window sits inside the arrival interval: flows exist before the
    # failure, live through it, and keep arriving after the restore
    fail_time, restore_time = 0.35 * duration, 0.7 * duration
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        rng = ctx.rng(topo_name)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.5, rng)
        workload = poisson_workload(pattern, arrival_rate, duration, rng=rng,
                                    fixed_size=flow_size)
        cells = []
        for fraction in fractions:
            schedule = sample_link_faults(topo, fraction, fail_time, restore_time,
                                          rng)
            failed = len(schedule.events) // 2   # fail + restore per sampled link
            for stack_name in STACKS:
                cells.append(StackCell(
                    stack=build_stack(topo, stack_name, seed=ctx.seed,
                                      routing_cache=ctx.routing_cache),
                    workload=workload, seed=ctx.seed,
                    config=FlowSimConfig(faults=schedule),
                    meta={"topology": topo_name, "stack": stack_name,
                          "fail_fraction": fraction, "failed_links": failed}))
        yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    tail, mean = tail_and_mean_throughput(result)
    summary = result.summary(percentiles=(50, 99))
    return {
        **cell.meta,
        "flows": len(result),
        "reroutes": result.meta["reroutes"],
        "stalls": result.meta["stalls"],
        "throughput_mean_MiBs": round(mean, 2),
        "throughput_tail1_MiBs": round(tail, 2),
        "fct_p50_ms": round(summary["fct_p50"] * 1e3, 4),
        "fct_p99_ms": round(summary["fct_p99"] * 1e3, 4),
    }


SCENARIO = ScenarioSpec(
    name="failures",
    title="Link failures and recovery: rerouting quality per stack",
    paper_reference="§II (degraded operation motivates non-minimal layered routing)",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "fail_fraction", "failed_links", "flows",
                  "reroutes", "stalls", "throughput_mean_MiBs",
                  "throughput_tail1_MiBs", "fct_p50_ms", "fct_p99_ms"),
    notes=(
        "Expected shape: all stacks reroute the same displaced flows (the fault "
        "machinery is stack-independent), but adaptive multipathing re-spreads them "
        "over the surviving path diversity, so its post-failure tails degrade less "
        "than static ECMP hashing's.",
    ),
)
