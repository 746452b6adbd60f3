"""Figures 20/21 (appendix): flow behaviour vs arrival rate lambda on a crossbar.

On a single-switch ("star") network the only contention is at endpoint links, so
sweeping the per-endpoint flow arrival rate shows where the transport/workload model
saturates: per-flow throughput decreases (FCT grows superlinearly) beyond the
saturation point (~250 flows/s per endpoint for the paper's pFabric mix on 10G links).
"""

from __future__ import annotations

import numpy as np

from repro.core.loadbalance import EcmpSelector
from repro.core.transport import tcp_transport
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import Stack, StackCell
from repro.routing import EcmpRouting
from repro.sim.queueing import offered_load
from repro.topologies import star
from repro.traffic.flows import pfabric_mean_size, poisson_workload
from repro.traffic.patterns import random_permutation

FLOW_SIZE = 2_000_000.0  # long flows, as in the appendix figure


def _plan(ctx: ScenarioContext):
    num_endpoints = ctx.scale.pick(24, 60, 60)
    duration = ctx.scale.pick(0.01, 0.02, 0.05)
    rates = ctx.scale.pick([50, 200, 400], [50, 200, 400, 800],
                           [50, 100, 200, 400, 600, 800])
    ctx.meta["num_endpoints"] = num_endpoints
    ctx.note(f"Mean pFabric flow size for load calibration: {pfabric_mean_size():.0f} "
             "bytes.")

    topo = star(num_endpoints)
    routing = EcmpRouting(topo)
    # one batched sweep over the arrival rates: the crossbar's candidate paths are
    # resolved once and shared by every cell through the engine's pooled bank
    cells = []
    for rate in rates:
        rng = np.random.default_rng(ctx.seed)
        pattern = random_permutation(num_endpoints, rng)
        workload = poisson_workload(pattern, float(rate), duration, rng=rng,
                                    fixed_size=FLOW_SIZE)
        cells.append(StackCell(stack=Stack("ecmp_star", routing,
                                           EcmpSelector(seed=ctx.seed), tcp_transport()),
                               workload=workload, seed=ctx.seed, drop_warmup=True,
                               meta={"lambda": rate}))
    yield SimSweep.per_cell(topo, cells, _row)


def _row(cell: StackCell, result) -> dict:
    summary = result.summary(percentiles=(10, 90))
    rate = cell.meta["lambda"]
    return {
        "lambda": rate,
        "offered_load": round(offered_load(rate, FLOW_SIZE, 10e9), 3),
        "flows": len(result),
        "fct_mean_ms": round(summary["fct_mean"] * 1e3, 4),
        "fct_p10_ms": round(summary["fct_p10"] * 1e3, 4),
        "fct_p90_ms": round(summary["fct_p90"] * 1e3, 4),
        "throughput_mean_MiBs": round(summary["throughput_mean"] / 2**20, 2),
    }


SCENARIO = ScenarioSpec(
    name="fig20",
    title="Flow behaviour vs arrival rate on a crossbar (saturation analysis)",
    paper_reference="Figures 20-21 (appendix)",
    plan=_plan,
    base_columns=("lambda", "offered_load", "flows", "fct_mean_ms", "fct_p10_ms",
                  "fct_p90_ms", "throughput_mean_MiBs"),
    notes=(
        "Paper finding (Fig 20): per-flow throughput decreases beyond lambda ~ 250 "
        "flows/s/endpoint — the network-saturation point used to pick lambda = 200/300 "
        "for the TCP/NDP simulations.",
    ),
)
