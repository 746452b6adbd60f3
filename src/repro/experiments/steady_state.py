"""Steady-state streaming scenario: sustained arrivals through the stream service.

The paper's evaluation runs fixed workloads to completion; a deployed fabric
instead sees an *open-ended* arrival process, where the interesting numbers are
steady-state ones — FCT percentiles past warm-up, sustained completion throughput
and the concurrency the service had to hold.  This registry scenario drives the
streaming service layer (:class:`repro.sim.stream.StreamSimulator` over a lazy
:func:`repro.traffic.streams.poisson_flow_stream`) with sustained Poisson traffic
per stack and reports its windowed steady-state estimates: the P² FCT percentiles
accumulated past the warm-up windows, plus the bounded-memory evidence (peak
active flows and slot-array peak versus total arrivals, and how often the slot
space was compacted).

Every family draws its pattern and arrivals from its own ``(seed, family)``
streams, so the grid may fan this scenario into per-family cells (split rows ==
unsplit rows); each stack replays the *identical* arrival stream by re-deriving
the same generator.  Walkthrough: ``docs/streaming.md``.
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioContext, ScenarioSpec
from repro.experiments.simcommon import build_stack
from repro.sim.simconfig import StreamConfig
from repro.sim.stream import StreamSimulator
from repro.topologies import comparable_configurations
from repro.traffic.patterns import random_permutation
from repro.traffic.streams import poisson_flow_stream

#: Topology families this scenario iterates (per-family random streams; grid cells
#: may select a subset without changing rows).
TOPOLOGY_NAMES = ("SF", "HX3")

#: Compared stacks, in row order.
STACKS = ("fatpaths", "ndp", "ecmp")


def _plan(ctx: ScenarioContext):
    size_class = ctx.scale.size_class()
    arrival_rate = ctx.scale.pick(300.0, 400.0, 500.0)
    duration = ctx.scale.pick(0.05, 0.2, 0.5)
    stream_config = StreamConfig(
        window=ctx.scale.pick(0.005, 0.02, 0.05), warmup_windows=2,
        min_retired=ctx.scale.pick(64, 512, 1024),
        initial_slots=ctx.scale.pick(64, 512, 1024))
    configs = comparable_configurations(size_class, topologies=list(ctx.topologies),
                                        seed=ctx.seed)
    for topo_name, topo in configs.items():
        rng = ctx.rng(topo_name)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.5, rng)
        for stack_name in STACKS:
            stack = build_stack(topo, stack_name, seed=ctx.seed,
                                routing_cache=ctx.routing_cache)
            sim = StreamSimulator(topo, stack.routing, selector=stack.selector,
                                  transport=stack.transport, seed=ctx.seed,
                                  stream_config=stream_config,
                                  record_sink=lambda record: None)
            # every stack replays the identical arrival stream: the generator is
            # re-derived from the same (seed, family) key for each of them
            arrivals = poisson_flow_stream(
                pattern, arrival_rate, rng=ctx.rng(f"{topo_name}-arrivals"),
                duration=duration)
            summary = sim.run(arrivals)
            yield _row(topo_name, stack_name, summary)


def _row(topo_name: str, stack_name: str, summary: dict) -> dict:
    return {
        "topology": topo_name,
        "stack": stack_name,
        "arrivals": int(summary["arrivals"]),
        "completions": int(summary["completions"]),
        "windows": int(summary["windows"]),
        "steady_completions": int(summary["steady_completions"]),
        "fct_p50_ms": round(summary["steady_fct_p50"] * 1e3, 4),
        "fct_p90_ms": round(summary["steady_fct_p90"] * 1e3, 4),
        "fct_p99_ms": round(summary["steady_fct_p99"] * 1e3, 4),
        "fct_mean_ms": round(summary["steady_fct_mean"] * 1e3, 4),
        "peak_active": int(summary["peak_active"]),
        "peak_slots": int(summary["peak_slots"]),
        "slot_compactions": int(summary["slot_compactions"]),
    }


SCENARIO = ScenarioSpec(
    name="steady",
    title="Steady-state streaming service: windowed FCT under sustained arrivals",
    paper_reference="— (registry scenario beyond the paper)",
    plan=_plan,
    topology_names=TOPOLOGY_NAMES,
    base_columns=("topology", "stack", "arrivals", "completions", "windows",
                  "steady_completions", "fct_p50_ms", "fct_p90_ms", "fct_p99_ms",
                  "fct_mean_ms", "peak_active", "peak_slots", "slot_compactions"),
    notes=(
        "Steady-state percentiles are P² estimates over completions past the "
        "warm-up windows — streaming, not exact, but deterministic for a given "
        "arrival stream.  peak_slots versus arrivals is the bounded-memory "
        "evidence: the slot space tracks the concurrent population, not the "
        "arrival count.",
    ),
)
