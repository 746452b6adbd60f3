"""Fidelity scenario: flow-level vs packet-level FCT agreement per stack.

The paper validates its flow-level methodology against packet simulation (the Fig. 15
methodology note: htsim/OMNeT++ packet runs back the flow-level sweeps).  This
registry scenario replays that check inside the repo: the same workload runs through
the flow-level engine (:func:`repro.sim.flowsim.simulate_workload`) and the
packet-level engine (:func:`repro.sim.packetsim.simulate_packets`), and each row
reports the FCT percentiles of both models plus their ratio and an agreement-band
verdict.  The two models are *different abstractions* — max-min fair rate sharing vs
queues, trimming and windows — so the pinned expectation is agreement within a small
constant factor (the bands below), not equality; the golden rows additionally pin
the exact ratios at tiny scale.

Every family draws its traffic from its own ``(seed, family)`` stream, so the grid
may fan this scenario into per-family cells (split rows == unsplit rows).
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack
from repro.sim.packetsim import simulate_packets
from repro.topologies import comparable_configurations
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation

KIB = 1024

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "FT3")

#: Compared stacks, in row order.
STACKS = ("fatpaths", "ndp", "ecmp")

#: Accepted packet/flow FCT ratio per percentile: the models agree when the packet
#: simulation's percentile lands within these factors of the flow-level one.
P50_BAND = (0.3, 3.0)
P99_BAND = (0.3, 3.0)


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    flow_size = ctx.scale.pick(96 * KIB, 128 * KIB, 192 * KIB)
    fraction = ctx.scale.pick(0.2, 0.06, 0.02)
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        rng = ctx.rng(topo_name)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(fraction, rng)
        workload = uniform_size_workload(pattern, flow_size)
        cells = [StackCell(stack=build_stack(topo, stack_name, seed=ctx.seed,
                                             routing_cache=ctx.routing_cache),
                           workload=workload, seed=ctx.seed,
                           meta={"topology": topo_name, "stack": stack_name})
                 for stack_name in STACKS]

        def aggregate(flow_results, topo=topo, cells=cells):
            for cell, flow_result in zip(cells, flow_results):
                stack = build_stack(topo, cell.meta["stack"], seed=ctx.seed,
                                    routing_cache=ctx.routing_cache)
                packet_result = simulate_packets(
                    topo, stack.routing, cell.workload, selector=stack.selector,
                    transport=stack.transport, seed=ctx.seed)
                yield _row(cell, flow_result, packet_result)

        yield SimSweep(topology=topo, cells=cells, aggregate=aggregate)


def _row(cell: StackCell, flow_result, packet_result) -> dict:
    flow = flow_result.summary(percentiles=(50, 99))
    packet = packet_result.summary(percentiles=(50, 99))
    p50_ratio = packet["fct_p50"] / flow["fct_p50"]
    p99_ratio = packet["fct_p99"] / flow["fct_p99"]
    return {
        **cell.meta,
        "flows": len(flow_result),
        "flow_fct_p50_ms": round(flow["fct_p50"] * 1e3, 4),
        "flow_fct_p99_ms": round(flow["fct_p99"] * 1e3, 4),
        "packet_fct_p50_ms": round(packet["fct_p50"] * 1e3, 4),
        "packet_fct_p99_ms": round(packet["fct_p99"] * 1e3, 4),
        "fct_p50_ratio": round(p50_ratio, 3),
        "fct_p99_ratio": round(p99_ratio, 3),
        "agree_p50": bool(P50_BAND[0] <= p50_ratio <= P50_BAND[1]),
        "agree_p99": bool(P99_BAND[0] <= p99_ratio <= P99_BAND[1]),
    }


SCENARIO = ScenarioSpec(
    name="fidelity",
    title="Flow-level vs packet-level FCT agreement per stack",
    paper_reference="— (methodology validation, Fig 15 spirit)",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "flows", "flow_fct_p50_ms", "flow_fct_p99_ms",
                  "packet_fct_p50_ms", "packet_fct_p99_ms", "fct_p50_ratio",
                  "fct_p99_ratio", "agree_p50", "agree_p99"),
    notes=(
        "The flow model allocates max-min fair rates with no queueing delay; the "
        "packet model adds serialisation, shallow queues and trimming — expect the "
        "packet FCTs to sit above the flow FCTs by a small factor, tighter at the "
        "median than at the tail.",
    ),
)
