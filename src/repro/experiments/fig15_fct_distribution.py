"""Figure 15: FCT distribution of long flows on Slim Fly vs a queueing-model prediction.

The paper plots the distribution of completion times of 1 MiB flows on Slim Fly under
(a) a simple queueing model, (b) FatPaths on TCP with non-minimal routing and (c) ECMP.
The shape to reproduce: the FatPaths distribution is close to the queueing-model
prediction, while ECMP exhibits a long tail of colliding flows.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapping import random_mapping
from repro.experiments.scenario import ScenarioContext, ScenarioSpec, SimSweep
from repro.experiments.simcommon import StackCell, build_stack
from repro.sim.queueing import offered_load, predict_fct_distribution
from repro.topologies import build
from repro.traffic.flows import poisson_workload
from repro.traffic.patterns import random_permutation

MIB = 1024 * 1024


def _describe(name: str, samples: np.ndarray) -> dict:
    """One distribution-summary row (the figure's per-series statistics)."""
    return {
        "series": name,
        "fct_mean_ms": round(float(samples.mean()) * 1e3, 4),
        "fct_p50_ms": round(float(np.percentile(samples, 50)) * 1e3, 4),
        "fct_p99_ms": round(float(np.percentile(samples, 99)) * 1e3, 4),
        "fct_max_ms": round(float(samples.max()) * 1e3, 4),
        "tail_over_mean": round(float(np.percentile(samples, 99) / samples.mean()), 2),
    }


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    arrival_rate = 200.0           # flows per endpoint per second (lambda = 200, §VII-A4)
    duration = ctx.scale.pick(0.02, 0.04, 0.05)
    fraction = ctx.scale.pick(0.2, 0.25, 0.25)
    flow_size = 1 * MIB
    link_rate = 10e9
    ctx.meta["arrival_rate"] = arrival_rate

    topo = build("SF", size_class, seed=ctx.seed)
    rng = np.random.default_rng(ctx.seed)
    pattern = random_permutation(topo.num_endpoints, rng).subsample(fraction, rng)
    mapping = random_mapping(topo.num_endpoints, rng)
    workload = poisson_workload(pattern, arrival_rate, duration, rng=rng,
                                fixed_size=flow_size)

    cells = [StackCell(stack=build_stack(topo, variant, seed=ctx.seed,
                                         routing_cache=ctx.routing_cache),
                       workload=workload, mapping=mapping, seed=ctx.seed,
                       meta={"series": variant})
             for variant in ("fatpaths_tcp", "ecmp")]

    load = offered_load(arrival_rate, flow_size, link_rate)
    ctx.note(f"M/G/1-PS offered load used for the model: {load:.3f}.")
    model_samples = predict_fct_distribution(np.full(len(workload), flow_size), load,
                                             link_rate, base_latency=20e-6,
                                             rng=np.random.default_rng(ctx.seed))

    def aggregate(results):
        rows = [_describe("queueing_model", model_samples)]
        rows.extend(_describe(cell.meta["series"], result.fcts())
                    for cell, result in zip(cells, results))
        return rows

    yield SimSweep(topology=topo, cells=cells, aggregate=aggregate)


SCENARIO = ScenarioSpec(
    name="fig15",
    title="Long-flow FCT distribution on SF vs queueing-model prediction",
    paper_reference="Figure 15",
    plan=_plan,
    base_columns=("series", "fct_mean_ms", "fct_p50_ms", "fct_p99_ms", "fct_max_ms",
                  "tail_over_mean"),
    notes=(
        "Paper finding (Fig 15): FatPaths' FCT distribution is close to the queueing-model "
        "prediction; ECMP shows a long tail of colliding flows (larger p99/mean ratio).",
    ),
)
