"""Packet-simulation engine benchmarks: scalar reference vs vectorized engine.

The pair mirrors ``test_bench_flowsim.py``: the *same* deep-incast workload (many
senders converging on one receiver, FatPaths stack with NDP-style trimming — the
NACK-heavy regime where per-event Python overhead dominates the scalar loop) on the
*same* scale-dependent Slim Fly, once through the preserved scalar simulator
(``repro.sim.packetsim_reference``) and once through ``repro.sim.packetengine``;
records are pinned bit-identical inside the speedup test.
``tools/bench_report.py`` consolidates this module's pytest-benchmark output into
the committed ``BENCH_flowsim.json`` alongside the flow-level numbers.

The speedup test times each implementation with ``time.process_time`` over
interleaved rounds and compares the per-side minima — packet runs are hundreds of
milliseconds, where one scheduler preemption under ``perf_counter`` would swamp
the ratio.

Run ``pytest benchmarks/test_bench_packetsim.py --benchmark-only -s``; set
``FATPATHS_BENCH_SCALE=small|medium`` for larger instances.
"""

import time

import pytest

from repro.experiments.simcommon import build_stack
from repro.sim.packetengine import PacketEngine
from repro.sim.packetsim_reference import PacketLevelSimulator
from repro.traffic.flows import Flow, Workload

KIB = 1024
MIB = 1024 * 1024

#: Engine-vs-reference speedup floor asserted at small/medium scale.  The engine's
#: structural win is the ~1.8x event-visit reduction (lazy dequeues, fused
#: delivery dispatch) plus a cheaper per-visit body; with the record-for-record
#: pin (exact event order, exact selector RNG replay) the measured speedup on this
#: workload sits at 2.4-2.8x across machines, so the floor is set below that band
#: with margin for runner noise rather than at the aspirational 3x.
_PACKET_SPEEDUP_FLOOR = 2.0

#: Deep-incast shape per scale: (senders, flow size).  Every sender targets
#: endpoint 0, overflowing the destination router's shallow queues — sustained
#: trimming, priority-lane headers and NACK retransmit storms.
_INCAST_SHAPE = {"tiny": (32, 512 * KIB), "small": (64, 2 * MIB),
                 "medium": (64, 2 * MIB)}

#: The two implementations, by the names the benchmark rows use.
_SIMULATORS = {"reference": PacketLevelSimulator, "engine": PacketEngine}


@pytest.fixture(scope="module")
def incast_workload(kgraph, scale):
    """The scale-dependent deep incast: n senders, one fixed receiver."""
    senders, size = _INCAST_SHAPE[scale.value]
    flows = [Flow(start_time=0.0, source=s, destination=0, size_bytes=size)
             for s in range(1, senders + 1)]
    return Workload(flows, name=f"deep_incast({senders})")


def _run(kgraph, workload, engine):
    stack = build_stack(kgraph, "fatpaths", seed=0)
    sim = _SIMULATORS[engine](kgraph, stack.routing, selector=stack.selector,
                              transport=stack.transport, seed=0)
    return sim.run(workload)


def test_bench_packetsim_reference_scalar(benchmark, kgraph, incast_workload):
    result = benchmark.pedantic(_run, args=(kgraph, incast_workload, "reference"),
                                rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["events"] = int(result.meta["events"])
    assert len(result) == len(incast_workload)


def test_bench_packetsim_vectorized_engine(benchmark, kgraph, incast_workload):
    result = benchmark.pedantic(_run, args=(kgraph, incast_workload, "engine"),
                                rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["events"] = int(result.meta["events"])
    assert len(result) == len(incast_workload)


def test_packetsim_engine_speedup_and_equivalence(kgraph, incast_workload, scale):
    """Time both implementations on identical inputs (interleaved, min-of-N CPU
    time), pin the records bit-identical, and (at small/medium scale) assert the
    engine's speedup floor."""
    rounds = 3
    _run(kgraph, incast_workload, "engine")            # warm shared caches
    best = {"reference": float("inf"), "engine": float("inf")}
    results = {}
    for _ in range(rounds):
        for engine in ("reference", "engine"):
            start = time.process_time()
            results[engine] = _run(kgraph, incast_workload, engine)
            best[engine] = min(best[engine], time.process_time() - start)

    reference, engine = results["reference"], results["engine"]
    assert reference.meta == engine.meta
    assert reference.records == engine.records

    speedup = best["reference"] / max(best["engine"], 1e-9)
    print(f"\npacketsim {scale.value}: reference {best['reference'] * 1e3:.1f} ms, "
          f"engine {best['engine'] * 1e3:.1f} ms "
          f"({reference.meta['events']} events), speedup {speedup:.2f}x")
    if scale.value != "tiny":
        assert speedup >= _PACKET_SPEEDUP_FLOOR
