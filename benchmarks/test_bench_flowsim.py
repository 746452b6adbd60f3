"""Flow-simulation engine benchmarks: reference vs engine, full vs incremental.

The first pair mirrors the other legacy-vs-kernel benchmarks: the *same* fig02-style
workload (randomly mapped permutation traffic, uniform flow sizes, FatPaths stack) on
the *same* scale-dependent Slim Fly, once through the preserved scalar simulator
(``repro.sim.reference``) and once through ``repro.sim.engine``; results are pinned
identical inside the speedup test.  A third benchmark sweeps a multi-cell
(stack, workload) grid through ``simulate_many`` — the batched entry point the
simulation experiments run on.

The second pair benchmarks the engine's *rate allocators*
(``FlowSimConfig.allocator``) on the staggered multi-tenant incast workload:
disjoint-sender hotspot groups with Poisson arrivals, where the link–flow
incidence decomposes into per-group components and churn is local — the regime the
incremental dirty-component allocator (``repro.sim.allocstate``) targets.  The
static-hash ``ecmp`` stack keeps both allocators on identical trajectories, so the
comparison isolates allocation cost.  ``tools/bench_report.py`` consolidates these
benchmarks' pytest-benchmark output into the committed ``BENCH_flowsim.json``.

A companion pair benchmarks the *dense* regime the bottleneck-structure allocator
(``repro.sim.bottleneck``) targets: shared-sender incast with every flow arriving
at t=0, which welds the link–flow incidence into one connected component.  There
the incremental allocator's component refiltering degenerates to a full
progressive fill per event, while the bottleneck allocator still refills only the
flows coupled to each event through *saturated* links — the hotspot's own fan-in
plus whatever the expansion frontier drags in.

Run ``pytest benchmarks/test_bench_flowsim.py --benchmark-only -s``; set
``FATPATHS_BENCH_SCALE=small|medium`` for larger instances.
"""

import time

import numpy as np
import pytest

from repro.core.mapping import random_mapping
from repro.experiments.simcommon import StackCell, build_stack, simulate_stack_many
from repro.sim.engine import FlowEngine
from repro.sim.flowsim import FlowSimConfig, simulate_workload
from repro.sim.reference import FlowLevelSimulator
from repro.traffic.flows import Flow, Workload, poisson_workload, uniform_size_workload
from repro.traffic.patterns import incast_pattern, random_permutation

KIB = 1024

#: Engine-vs-reference speedup floor asserted at small/medium scale (the acceptance
#: bar for the vectorized engine); tiny instances are too noisy to gate.
_SPEEDUP_FLOOR = 5.0

#: Incremental-vs-full allocator event-rate speedup floor on the staggered incast
#: benchmark, asserted at small/medium scale (the PR's acceptance bar).
_ALLOC_SPEEDUP_FLOOR = 2.0

#: Bottleneck-vs-incremental event-rate speedup floor on the dense all-at-once
#: incast benchmark, asserted at small/medium scale (the PR's acceptance bar).
#: Tiny instances are dominated by per-event fixed costs and are not gated.
_BOTTLENECK_SPEEDUP_FLOOR = 2.0

#: Staggered incast shape per scale: (hotspots, fanin, per-pair flow rate 1/s,
#: flows per pair).  Disjoint sender sets keep per-group injection links private,
#: Poisson arrivals keep concurrency moderate — both are what makes the incidence
#: decompose into components the incremental allocator can refill locally.
_INCAST_SHAPE = {"tiny": (8, 8, 500.0, 3), "small": (64, 8, 500.0, 4),
                 "medium": (160, 8, 500.0, 4)}

#: Dense incast shape per scale: (hotspots, fanin).  Senders are *shared* across
#: hotspot groups and every flow arrives at t=0, so the incidence is one giant
#: component from the first event to the last — the regime where component
#: refiltering degenerates to full fills but saturation-coupling stays local
#: (each hotspot's ejection link saturates; the shared sender links do not).
_DENSE_INCAST_SHAPE = {"tiny": (12, 12), "small": (96, 12), "medium": (200, 12)}


@pytest.fixture(scope="module")
def fig02_workload(kgraph):
    """Fig-2-style traffic on the scale-dependent Slim Fly: randomly mapped
    permutation pairs, one uniform 256 KiB flow each."""
    rng = np.random.default_rng(0)
    pattern = random_permutation(kgraph.num_endpoints, rng).subsample(0.25, rng)
    mapping = random_mapping(kgraph.num_endpoints, rng)
    return uniform_size_workload(pattern, 256 * KIB), mapping


#: The two implementations, by the names the benchmark rows use.
_SIMULATORS = {"reference": FlowLevelSimulator, "engine": FlowEngine}


def _run(kgraph, workload, mapping, engine):
    stack = build_stack(kgraph, "fatpaths", seed=0, num_layers=4)
    sim = _SIMULATORS[engine](kgraph, stack.routing, selector=stack.selector,
                              transport=stack.transport, seed=0)
    return sim.run(workload, mapping=mapping)


def test_bench_flowsim_reference_scalar(benchmark, kgraph, fig02_workload):
    workload, mapping = fig02_workload
    result = benchmark.pedantic(_run, args=(kgraph, workload, mapping, "reference"),
                                rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["events"] = int(result.meta["events"])
    assert len(result) == len(workload)


def test_bench_flowsim_vectorized_engine(benchmark, kgraph, fig02_workload):
    workload, mapping = fig02_workload
    result = benchmark.pedantic(_run, args=(kgraph, workload, mapping, "engine"),
                                rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["events"] = int(result.meta["events"])
    assert len(result) == len(workload)


def test_flowsim_engine_speedup_and_equivalence(kgraph, fig02_workload, scale):
    """Time both implementations on identical inputs, pin the records, and (at
    small/medium scale) assert the engine's speedup floor."""
    workload, mapping = fig02_workload
    _run(kgraph, workload, mapping, "engine")          # warm shared caches
    start = time.perf_counter()
    reference = _run(kgraph, workload, mapping, "reference")
    reference_seconds = time.perf_counter() - start
    start = time.perf_counter()
    engine = _run(kgraph, workload, mapping, "engine")
    engine_seconds = time.perf_counter() - start

    assert len(reference) == len(engine)
    for ref, eng in zip(reference.records, engine.records):
        assert ref.flow_id == eng.flow_id
        assert ref.num_path_switches == eng.num_path_switches
        assert ref.congestion_events == eng.congestion_events
        assert eng.completion_time == pytest.approx(ref.completion_time, rel=1e-9)

    speedup = reference_seconds / max(engine_seconds, 1e-9)
    print(f"\nflowsim {scale.value}: reference {reference_seconds * 1e3:.1f} ms, "
          f"engine {engine_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x")
    if scale.value != "tiny":
        assert speedup >= _SPEEDUP_FLOOR


@pytest.fixture(scope="module")
def incast_workload(kgraph, scale):
    """Staggered multi-tenant incast: disjoint-sender hotspot groups, Poisson
    arrivals of fixed-size flows (see ``_INCAST_SHAPE``)."""
    hotspots, fanin, rate, reps = _INCAST_SHAPE[scale.value]
    pattern = incast_pattern(kgraph.num_endpoints, num_hotspots=hotspots,
                             fanin=fanin, rng=np.random.default_rng(0),
                             disjoint_senders=True)
    return poisson_workload(pattern, rate, reps / rate,
                            rng=np.random.default_rng(1), fixed_size=256 * KIB)


def _run_alloc(kgraph, workload, allocator):
    stack = build_stack(kgraph, "ecmp", seed=0)
    return simulate_workload(kgraph, stack.routing, workload,
                             selector=stack.selector, transport=stack.transport,
                             config=FlowSimConfig(allocator=allocator), seed=0)


def test_bench_alloc_full(benchmark, kgraph, incast_workload):
    result = benchmark.pedantic(_run_alloc, args=(kgraph, incast_workload, "full"),
                                rounds=1, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = int(result.meta["events"])
    benchmark.extra_info["flows"] = len(result)
    assert len(result) == len(incast_workload)


def test_bench_alloc_incremental(benchmark, kgraph, incast_workload):
    result = benchmark.pedantic(_run_alloc,
                                args=(kgraph, incast_workload, "incremental"),
                                rounds=1, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = int(result.meta["events"])
    benchmark.extra_info["flows"] = len(result)
    assert len(result) == len(incast_workload)


def test_alloc_incremental_speedup_and_agreement(kgraph, incast_workload, scale):
    """Time both allocators on the staggered incast, pin the records, and (at
    small/medium scale) assert the incremental event-rate speedup floor."""
    _run_alloc(kgraph, incast_workload, "incremental")     # warm shared caches
    start = time.perf_counter()
    full = _run_alloc(kgraph, incast_workload, "full")
    full_seconds = time.perf_counter() - start
    start = time.perf_counter()
    incremental = _run_alloc(kgraph, incast_workload, "incremental")
    incremental_seconds = time.perf_counter() - start

    assert full.meta["events"] == incremental.meta["events"]
    for ref, inc in zip(full.records, incremental.records):
        assert ref.flow_id == inc.flow_id
        assert inc.completion_time == pytest.approx(ref.completion_time, rel=1e-6)

    events = full.meta["events"]
    speedup = full_seconds / max(incremental_seconds, 1e-9)
    print(f"\nallocator {scale.value}: full {full_seconds * 1e3:.1f} ms "
          f"({events / full_seconds:.0f} ev/s), incremental "
          f"{incremental_seconds * 1e3:.1f} ms "
          f"({events / incremental_seconds:.0f} ev/s), speedup {speedup:.2f}x")
    if scale.value != "tiny":
        assert speedup >= _ALLOC_SPEEDUP_FLOOR


@pytest.fixture(scope="module")
def dense_incast_workload(kgraph, scale):
    """Dense all-at-once incast: shared-sender hotspot groups, every flow at t=0.

    Sizes are drawn uniformly in [128, 512) KiB so completions stagger into a long
    sequence of single-flow events instead of collapsing into a few simultaneous
    batch completions (which would make every event's perturbation global).
    """
    hotspots, fanin = _DENSE_INCAST_SHAPE[scale.value]
    pattern = incast_pattern(kgraph.num_endpoints, num_hotspots=hotspots,
                             fanin=fanin, rng=np.random.default_rng(2),
                             disjoint_senders=False)
    rng = np.random.default_rng(3)
    flows = [Flow(start_time=0.0, source=s, destination=t,
                  size_bytes=float(rng.uniform(128, 512) * KIB))
             for s, t in pattern.pairs if s != t]
    return Workload(flows, name=f"dense({pattern.name})",
                    meta={"pattern": pattern.name})


def test_bench_alloc_incremental_dense(benchmark, kgraph, dense_incast_workload):
    result = benchmark.pedantic(_run_alloc,
                                args=(kgraph, dense_incast_workload, "incremental"),
                                rounds=1, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = int(result.meta["events"])
    benchmark.extra_info["flows"] = len(result)
    benchmark.extra_info["full_fills"] = int(
        result.meta["allocator_stats"]["full_fills"])
    assert len(result) == len(dense_incast_workload)


def test_bench_alloc_bottleneck_dense(benchmark, kgraph, dense_incast_workload):
    result = benchmark.pedantic(_run_alloc,
                                args=(kgraph, dense_incast_workload, "bottleneck"),
                                rounds=1, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = int(result.meta["events"])
    benchmark.extra_info["flows"] = len(result)
    benchmark.extra_info["full_fills"] = int(
        result.meta["allocator_stats"]["full_fills"])
    assert len(result) == len(dense_incast_workload)


def test_alloc_bottleneck_speedup_and_agreement(kgraph, dense_incast_workload,
                                                scale):
    """Time both refiltering allocators on the dense incast, pin the records, and
    (at small/medium scale) assert the bottleneck event-rate speedup floor."""
    _run_alloc(kgraph, dense_incast_workload, "bottleneck")    # warm shared caches
    start = time.perf_counter()
    incremental = _run_alloc(kgraph, dense_incast_workload, "incremental")
    incremental_seconds = time.perf_counter() - start
    start = time.perf_counter()
    bottleneck = _run_alloc(kgraph, dense_incast_workload, "bottleneck")
    bottleneck_seconds = time.perf_counter() - start

    assert incremental.meta["events"] == bottleneck.meta["events"]
    for inc, bot in zip(incremental.records, bottleneck.records):
        assert inc.flow_id == bot.flow_id
        assert bot.completion_time == pytest.approx(inc.completion_time, rel=1e-6)

    # The counters explain the gap: the one-component incidence forces the
    # incremental allocator into full fills on most events, while the bottleneck
    # allocator's saturation-coupled downstream regions stay near the fan-in.
    inc_stats = incremental.meta["allocator_stats"]
    bot_stats = bottleneck.meta["allocator_stats"]
    events = bottleneck.meta["events"]
    assert inc_stats["full_fills"] >= events // 2
    assert bot_stats["full_fills"] <= events // 10
    assert bot_stats["refills"] > 0
    fanin = _DENSE_INCAST_SHAPE[scale.value][1]
    assert bot_stats["downstream_flows"] <= bot_stats["refills"] * 4 * fanin

    speedup = incremental_seconds / max(bottleneck_seconds, 1e-9)
    print(f"\ndense allocator {scale.value}: incremental "
          f"{incremental_seconds * 1e3:.1f} ms "
          f"({events / incremental_seconds:.0f} ev/s), bottleneck "
          f"{bottleneck_seconds * 1e3:.1f} ms "
          f"({events / bottleneck_seconds:.0f} ev/s), speedup {speedup:.2f}x")
    if scale.value != "tiny":
        assert speedup >= _BOTTLENECK_SPEEDUP_FLOOR


def test_bench_simulate_many_cell_sweep(benchmark, kgraph):
    """A fig02/fig14-shaped cell sweep (two stacks x three flow sizes) through the
    batched entry point, sharing the link space and candidate pools across cells."""
    rng = np.random.default_rng(0)
    pattern = random_permutation(kgraph.num_endpoints, rng).subsample(0.2, rng)
    mapping = random_mapping(kgraph.num_endpoints, rng)
    sizes = (32 * KIB, 256 * KIB, 1024 * KIB)

    def sweep():
        routing_cache = {}
        cells = [StackCell(stack=build_stack(kgraph, stack_name, seed=0, num_layers=4,
                                             routing_cache=routing_cache),
                           workload=uniform_size_workload(pattern, size),
                           mapping=mapping, seed=0)
                 for stack_name in ("fatpaths", "ecmp") for size in sizes]
        return simulate_stack_many(kgraph, cells)

    results = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    assert len(results) == 6
    assert all(len(result) for result in results)
