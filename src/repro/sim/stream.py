"""Streaming service layer over the vectorized flow engine (`repro.sim.stream`).

:class:`StreamSimulator` turns the batch :class:`repro.sim.engine.FlowEngine`
into a long-running service: arrivals come from an open-ended iterator (or
incremental :meth:`~StreamSimulator.push` / :meth:`~StreamSimulator.advance`
calls) instead of a fully materialised workload, completed flows retire to a
bounded ring (or a caller-supplied sink), and memory stays proportional to the
*active* flow set — the slot arrays, the persistent allocation pool and the
private candidate bank are periodically compacted
(:meth:`~repro.sim.engine.EngineCore.compact_slots`,
:meth:`~repro.sim.engine.EngineCore.reclaim_bank`) under a deterministic,
counter-driven policy.

Semantics are pinned to the batch engine: feeding a batch workload through the
streaming API chunk-by-chunk — compacting between chunks — produces
record-for-record identical results to
:func:`repro.sim.flowsim.simulate_workload` (``tests/sim/test_stream.py``).
The only driver-visible contract is arrival ordering: pushed flows must be
nondecreasing in start time and must not start before the current simulated
time, and the event loop must have processed every event *strictly before* an
arrival's start by the time it is ingested (which
:meth:`~StreamSimulator.run`'s pull-ahead loop and
:meth:`~StreamSimulator.advance`'s ``inclusive=False`` mode guarantee) — then
fault/arrival/completion tie-breaking is reproduced exactly.

Steady-state metrics are incremental: completions land in per-window
:class:`~repro.sim.metrics.ReservoirSample` FCT reservoirs (windows anchored at
time 0, ``StreamConfig.window`` wide, closed lazily when an event crosses the
boundary — long stalls skip empty windows in one jump) and, past the warm-up
windows, in :class:`~repro.sim.metrics.P2Quantile` estimators for the
steady-state p50/p90/p99.  Per-window link utilisation and wall-clock event
rates ride along in :class:`WindowStats` (the wall-clock fields are
informational and never enter scenario rows).

:meth:`~StreamSimulator.checkpoint` snapshots the *full* mutable run state —
engine core, allocation state and allocator, private candidate bank, fault
runtime, window/estimator state and the metrics RNG — as one pickle of the
simulator's attributes, so a field added to any of these classes is
checkpointed with no edit here.  Inside the pickle, the stack the caller
passes again on restore (topology, routing, selector, transport, config, link
space, capacities) is written as named references, not copied.  The snapshot
carries a SHA-256 checksum and a digest of the source that wrote it.
:meth:`~StreamSimulator.restore` loads it into a freshly constructed simulator
over the same stack (validated against the checkpoint), after which the run
continues bit-identically to one that was never interrupted, including
selector RNG draws, fault bookkeeping counters and compaction points.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import pickle
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.loadbalance import PathSelector
from repro.core.transport import TransportModel
from repro.sim.engine import CandidateBank, EngineCore, FlowEngine
from repro.sim.metrics import FlowRecord, P2Quantile, ReservoirSample
from repro.sim.simconfig import FlowSimConfig, StreamConfig
from repro.topologies.base import Topology

#: Checkpoint format version written by :meth:`StreamSimulator.checkpoint`.
CHECKPOINT_VERSION = 2

#: Steady-state FCT percentiles tracked by the P² estimators.
STEADY_PERCENTILES = (50, 90, 99)

#: Simulator attributes a checkpoint leaves out: the engine and the stream
#: config (the caller re-supplies both), the record sink and the wall clock.
_NOT_CHECKPOINTED = frozenset({"engine", "stream_config", "_record_sink",
                               "_window_wall"})

#: Keys of a checkpoint dict.
_CHECKPOINT_KEYS = frozenset({"version", "code", "stack", "state", "sha256",
                              "selector_rng"})

#: Modules defining the classes a checkpoint pickles.
_STATE_MODULES = ("repro.sim.engine", "repro.sim.allocstate", "repro.sim.bottleneck",
                  "repro.sim.metrics", "repro.sim.stream")


@lru_cache(maxsize=None)
def _code_digest() -> str:
    """SHA-256 over the source of the modules whose objects a checkpoint pickles.

    A checkpoint is valid only for the code that wrote it: :meth:`restore`
    rejects one whose digest differs, so layout changes need no version bump.
    """
    digest = hashlib.sha256()
    for name in _STATE_MODULES:
        digest.update(Path(importlib.import_module(name).__file__).read_bytes())
    return digest.hexdigest()


@dataclass
class WindowStats:
    """Closed metrics window of a streaming run.

    All fields except ``wall_seconds`` are pure functions of the simulated event
    sequence (deterministic, reproducible across checkpoint/restore);
    ``wall_seconds`` is informational wall-clock time and must never enter
    scenario rows or golden data.
    """

    index: int              # window number (start = index * window width)
    start: float            # simulated window start time
    end: float              # simulated window end time
    arrivals: int           # flows admitted during the window
    completions: int        # flows completed during the window
    events: int             # engine events processed during the window
    fct_p50: float          # window FCT median (reservoir; exact under capacity)
    fct_p99: float          # window FCT 99th percentile
    fct_mean: float         # exact window FCT mean
    util_mean: float        # mean link utilisation at window close
    util_max: float         # max link utilisation at window close
    active: int             # active flows at window close
    sampled: bool           # True if the reservoir overflowed (percentiles sampled)
    wall_seconds: float     # wall-clock time spent in the window (informational)

    @property
    def events_per_second(self) -> float:
        """Wall-clock event rate of the window (informational only)."""
        if self.wall_seconds <= 0:
            return float("nan")
        return self.events / self.wall_seconds


class StreamSimulator:
    """Open-ended flow simulation service with bounded memory.

    Construct with the same stack as :class:`~repro.sim.engine.FlowEngine`
    (topology, routing, selector, transport, :class:`FlowSimConfig`), then
    either hand an ordered flow iterable to :meth:`run`, or drive incrementally
    with :meth:`push` + :meth:`advance`.  Completed records go to
    ``record_sink`` if given, else to the bounded :attr:`records` ring.

    The candidate bank is private to the service (never the shared per-routing
    bank), because bank reclamation rewrites segment offsets in place.
    """

    def __init__(self, topology: Topology, routing,
                 selector: Optional[PathSelector] = None,
                 transport: Optional[TransportModel] = None,
                 config: Optional[FlowSimConfig] = None, seed: int = 0,
                 stream_config: Optional[StreamConfig] = None,
                 mapping: Optional[Sequence[int]] = None,
                 record_sink: Optional[Callable[[FlowRecord], None]] = None) -> None:
        """Bind a stack and start an empty service at simulated time zero."""
        self.engine = FlowEngine(topology, routing, selector=selector,
                                 transport=transport, config=config, seed=seed)
        # private bank: reclaim_bank rewrites offsets, which a shared bank of
        # other (batch) runs over the same routing object must never see
        self.engine.bank = CandidateBank(self.engine.links)
        self.stream_config = stream_config or StreamConfig()
        cfg = self.stream_config
        self._record_sink = record_sink
        self.records: Deque[FlowRecord] = deque(maxlen=cfg.record_ring)
        self.core = EngineCore(self.engine, cfg.initial_slots, self._on_complete)
        self.core.set_mapping(mapping)
        self._metrics_rng = np.random.default_rng([seed, 0x5EED])
        # ---- window accounting
        self.windows: Deque[WindowStats] = deque(maxlen=cfg.keep_windows)
        self.windows_emitted = 0
        self.windows_skipped = 0
        self._window_index = 0
        self._window_arrivals = 0
        self._window_completions = 0
        self._window_events = 0
        self._window_fct_sum = 0.0
        self._window_reservoir = ReservoirSample(cfg.reservoir, self._metrics_rng)
        self._window_wall = time.perf_counter()
        self._admit_snapshot = 0
        # ---- steady-state estimators (window >= warmup_windows)
        self._p2: Dict[int, P2Quantile] = {p: P2Quantile(p / 100.0)
                                           for p in STEADY_PERCENTILES}
        self._steady_count = 0
        self._steady_fct_sum = 0.0
        # ---- lifetime counters
        self._total_arrivals = 0
        self._total_completions = 0
        self._next_flow_id = 0
        self.peak_active = 0
        self.peak_slots = 0
        self.peak_pool = 0
        self.peak_bank = 0
        self.slot_compactions = 0
        self.bank_reclaimed = 0

    # ------------------------------------------------------------------ driving
    @property
    def now(self) -> float:
        """Current simulated time."""
        return float(self.core.now)

    @property
    def active_count(self) -> int:
        """Number of currently active (admitted, unfinished) flows."""
        return int(self.core.active.size)

    def push(self, flows: Iterable) -> int:
        """Ingest a chunk of flows; returns how many were accepted.

        Flows must be nondecreasing in start time — within the chunk and
        against everything pushed before — and must not start before the
        current simulated time (the service cannot insert events into its own
        past).  Flows with a negative ``flow_id`` get sequential service ids.
        Ingestion alone processes no events; call :meth:`advance`.
        """
        flows = list(flows)
        if not flows:
            return 0
        core = self.core
        for f in flows:
            if f.flow_id < 0:
                f.flow_id = self._next_flow_id
                self._next_flow_id += 1
            else:
                self._next_flow_id = max(self._next_flow_id, f.flow_id + 1)
        if flows[0].start_time < core.now:
            raise ValueError(
                "cannot push a flow starting before the current simulated time")
        core.ingest(flows)
        if core.count > self.peak_slots:
            self.peak_slots = int(core.count)
        return len(flows)

    def advance(self, until: float = np.inf, inclusive: bool = True) -> int:
        """Process events up to ``until``; returns the number processed.

        ``inclusive=False`` stops strictly before ``until`` — required when the
        caller is about to push flows starting exactly at ``until``, so that a
        completion or fault epoch tied with that arrival keeps the batch
        engine's tie-break order (fault >= arrival >= completion).  Simulated
        time only moves with events; ``until`` is a horizon, not a target.
        """
        core = self.core
        strict = not inclusive
        processed = 0
        while core.admit_idx < core.count or core.active.size:
            if not core.step(until, strict):
                break
            self._after_event()
            self._maybe_compact()
            processed += 1
        return processed

    def run(self, stream: Iterable) -> Dict[str, object]:
        """Consume an ordered flow iterable, simulating as arrivals are pulled.

        The loop pulls one arrival group ahead: all flows sharing the next
        start time are ingested together (the batch engine admits every flow
        with ``start <= now`` in one arrival event), then events are processed
        strictly below the following group's start.  The remaining active flows
        are then drained to completion (:meth:`finish`) and :meth:`summary` is
        returned.
        """
        it = iter(stream)
        pending = next(it, None)
        while pending is not None:
            t = pending.start_time
            batch = [pending]
            pending = next(it, None)
            while pending is not None and pending.start_time <= t:
                batch.append(pending)
                pending = next(it, None)
            self.push(batch)
            if pending is not None:
                self.advance(float(pending.start_time), inclusive=False)
        return self.finish()

    def finish(self) -> Dict[str, object]:
        """Drain all ingested flows to completion and close the open window."""
        self.advance()
        if self._window_events or self._window_arrivals or self._window_completions:
            self._close_window(self._window_index + 1)
        return self.summary()

    # --------------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        """Compact when retired slots dominate (deterministic, counter-driven).

        Retired slots are admitted-and-finished arrival positions; once at
        least ``StreamConfig.min_retired`` of them have accumulated *and* they
        outnumber the live (active + pending) slots by
        ``StreamConfig.compact_factor``, the slot space is renumbered.  Both
        conditions are pure functions of the event sequence, so an uninterrupted
        run and its checkpoint-restored twin compact at identical points.
        """
        core = self.core
        retired = core.admit_idx - core.active.size
        if retired < self.stream_config.min_retired:
            return
        live = core.count - retired
        if retired >= self.stream_config.compact_factor * max(live, 1):
            self.compact()

    def compact(self) -> int:
        """Renumber live slots now; returns the number of retired slots dropped.

        Slot compaction rebuilds the allocation pool over the live slots; under
        fault schedules the private candidate bank is reclaimed too (detour
        segments of completed flows are the only per-flow bank growth).
        """
        core = self.core
        dropped = core.compact_slots()
        if dropped:
            self.slot_compactions += 1
            self._admit_snapshot = core.admit_idx
            if core.config.faults is not None:
                self.bank_reclaimed += core.reclaim_bank()
        return dropped

    # ----------------------------------------------------------------- metrics
    def _roll_windows(self) -> None:
        """Close every window the current simulated time has moved past."""
        idx = int(self.core.now // self.stream_config.window)
        if idx > self._window_index:
            self._close_window(idx)

    def _close_window(self, new_index: int) -> None:
        """Emit the current window's stats and reset the accumulators."""
        cfg = self.stream_config
        width = cfg.window
        res = self._window_reservoir
        completions = self._window_completions
        core = self.core
        self.windows.append(WindowStats(
            index=self._window_index,
            start=self._window_index * width,
            end=(self._window_index + 1) * width,
            arrivals=self._window_arrivals,
            completions=completions,
            events=self._window_events,
            fct_p50=res.percentile(50.0),
            fct_p99=res.percentile(99.0),
            fct_mean=(self._window_fct_sum / completions) if completions
            else float("nan"),
            util_mean=float(core.alloc.link_util.mean()),
            util_max=float(core.alloc.link_util.max()),
            active=int(core.active.size),
            sampled=res.seen > len(res.items),
            wall_seconds=time.perf_counter() - self._window_wall))
        self.windows_emitted += 1
        self.windows_skipped += max(0, new_index - self._window_index - 1)
        self._window_index = new_index
        self._window_arrivals = 0
        self._window_completions = 0
        self._window_events = 0
        self._window_fct_sum = 0.0
        self._window_reservoir = ReservoirSample(cfg.reservoir, self._metrics_rng)
        self._window_wall = time.perf_counter()

    def _on_complete(self, record: FlowRecord) -> None:
        """Core sink: account one completion, then retire the record."""
        self._roll_windows()
        fct = record.fct
        self._window_completions += 1
        self._window_fct_sum += fct
        self._window_reservoir.add(fct)
        if self._window_index >= self.stream_config.warmup_windows:
            for est in self._p2.values():
                est.add(fct)
            self._steady_count += 1
            self._steady_fct_sum += fct
        self._total_completions += 1
        if self._record_sink is not None:
            self._record_sink(record)
        else:
            self.records.append(record)

    def _after_event(self) -> None:
        """Post-event accounting: window rollover, arrivals delta, peaks."""
        core = self.core
        self._roll_windows()
        admitted = core.admit_idx - self._admit_snapshot
        if admitted:
            self._window_arrivals += admitted
            self._total_arrivals += admitted
            self._admit_snapshot = core.admit_idx
        self._window_events += 1
        if core.active.size > self.peak_active:
            self.peak_active = int(core.active.size)
        if core.count > self.peak_slots:
            self.peak_slots = int(core.count)
        used = int(core.alloc.state.used)
        if used > self.peak_pool:
            self.peak_pool = used
        if core.bank.used > self.peak_bank:
            self.peak_bank = int(core.bank.used)

    def summary(self) -> Dict[str, object]:
        """Deterministic service summary (counters, steady-state FCTs, peaks)."""
        core = self.core
        steady = self._steady_count
        out: Dict[str, object] = {
            "now": float(core.now),
            "events": int(core.events),
            "arrivals": int(self._total_arrivals),
            "completions": int(self._total_completions),
            "active": int(core.active.size),
            "pending": int(core.count - core.admit_idx),
            "steady_completions": int(steady),
            "steady_fct_mean": (self._steady_fct_sum / steady) if steady
            else float("nan"),
            "windows": int(self.windows_emitted),
            "windows_skipped": int(self.windows_skipped),
            "peak_active": int(self.peak_active),
            "peak_slots": int(self.peak_slots),
            "peak_pool": int(self.peak_pool),
            "peak_bank": int(self.peak_bank),
            "slot_compactions": int(self.slot_compactions),
            "pool_compactions": int(core.alloc.state.compactions),
            "bank_reclaimed": int(self.bank_reclaimed),
        }
        for p in STEADY_PERCENTILES:
            out[f"steady_fct_p{p}"] = self._p2[p].value()
        return out

    def meta(self) -> Dict[str, object]:
        """The underlying engine run's meta dict (event/fault/allocator counters)."""
        return self.core.meta()

    @property
    def link_util(self) -> np.ndarray:
        """Current per-link utilisation (the allocator's live view)."""
        return self.core.alloc.link_util

    # ------------------------------------------------------- checkpoint/restore
    def _stack_objects(self) -> Dict[str, object]:
        """The objects a checkpoint names instead of copying.

        They are the stack the caller passes again when restoring (plus the
        objects the core derives from it), so the restoring simulator supplies
        its own under the same names.
        """
        core = self.core
        return {"topology": core.topology, "adjacency": core.topology.adjacency(),
                "routing": core.routing, "selector": core.selector,
                "transport": core.transport, "config": core.config,
                "links": core.links, "capacities": core.capacities,
                "sink": core.sink}

    def _stack_descriptor(self) -> Dict[str, object]:
        """What :meth:`restore` checks the re-supplied stack against."""
        core = self.core
        remap = core._remap
        return {
            "topology": core.topology.name,
            "num_endpoints": core.links.num_endpoints,
            "num_links": core.num_links,
            "routing": getattr(core.routing, "name", type(core.routing).__name__),
            "selector": type(core.selector).__name__,
            "transport": core.transport.name,
            "allocator": core.alloc.name,
            "config": core.config,
            "stream_config": self.stream_config,
            "mapping": None if remap is None
            else hashlib.sha256(remap.tobytes()).hexdigest(),
        }

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the full mutable run state as a version-tagged dict.

        ``state`` is one pickle of every simulator attribute except the
        engine, the stream config, the record sink and the wall clock; the
        stack objects (:meth:`_stack_objects`) inside it are named references,
        not copies.  Beside it travel the selector's RNG state (the selector
        is part of the stack), the stack descriptor :meth:`restore` validates,
        a SHA-256 of ``state`` and the digest of the code that wrote it.
        """
        stack = self._stack_objects()     # alive while ids identify its objects
        names = {id(obj): name for name, obj in stack.items()}
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: names.get(id(obj))
        pickler.dump({name: value for name, value in vars(self).items()
                      if name not in _NOT_CHECKPOINTED})
        state = buf.getvalue()
        rng = getattr(self.core.selector, "_rng", None)
        return {
            "version": CHECKPOINT_VERSION,
            "code": _code_digest(),
            "stack": self._stack_descriptor(),
            "state": state,
            "sha256": hashlib.sha256(state).hexdigest(),
            "selector_rng": None if rng is None else rng.bit_generator.state,
        }

    def restore(self, chk: Dict[str, object]) -> None:
        """Load a :meth:`checkpoint` into this freshly constructed simulator.

        The caller constructs the simulator with the *same* stack the
        checkpoint was taken under (topology, routing, selector, transport,
        configs, allocator, mapping) and the same ``record_sink`` choice.  A
        checkpoint of another version, with missing keys, written by other
        code, with a corrupt ``state`` or taken under another stack raises a
        one-line ``ValueError`` before any state changes.  ``state`` is
        unpickled, so only restore checkpoints you wrote.  After restoring, the
        run continues bit-identically to one that was never interrupted.
        """
        version = chk.get("version") if isinstance(chk, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r} "
                             f"(this build writes version {CHECKPOINT_VERSION})")
        missing = sorted(_CHECKPOINT_KEYS - chk.keys())
        if missing:
            raise ValueError(f"checkpoint is missing {', '.join(missing)}")
        if chk["code"] != _code_digest():
            raise ValueError("checkpoint was written by different code "
                             "(source digest mismatch)")
        state = chk["state"]
        if not isinstance(state, bytes) \
                or hashlib.sha256(state).hexdigest() != chk["sha256"]:
            raise ValueError("checkpoint state is corrupt (SHA-256 mismatch)")
        core = self.core
        if core.events or core.count:
            raise ValueError("restore requires a freshly constructed simulator")
        saved = chk["stack"]
        for key, value in self._stack_descriptor().items():
            if saved.get(key) != value:
                raise ValueError(
                    f"checkpoint stack mismatch on {key!r}: "
                    f"saved {saved.get(key)!r}, constructed {value!r}")
        unpickler = pickle.Unpickler(io.BytesIO(state))
        unpickler.persistent_load = self._stack_objects().__getitem__
        vars(self).update(unpickler.load())
        self.engine.bank = self.core.bank
        if chk["selector_rng"] is not None:
            self.core.selector._rng.bit_generator.state = chk["selector_rng"]
        self._window_wall = time.perf_counter()


__all__ = ["CHECKPOINT_VERSION", "STEADY_PERCENTILES", "StreamConfig",
           "StreamSimulator", "WindowStats"]
