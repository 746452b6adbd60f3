"""Fault-tolerant grid execution: owned workers, timeouts, journal, resume.

``run_experiment_grid`` used to be a bare ``pool.map``: one OOM-killed or
segfaulted worker raised :class:`~concurrent.futures.process.BrokenProcessPool`
and discarded every completed cell, a hung cell stalled the sweep forever, and a
multi-hour sweep could not be resumed after a crash.  This module is the
execution-layer counterpart of the *simulated* fault tolerance added by the
failure-injection subsystem (``docs/resilience.md``): the sweep itself now
survives worker crashes and hangs, and can be resumed from an append-only
journal with bit-identical results.

A cell re-runs only when it loses its worker.  Every cell is a pure function of
``(name, scale, seed, topologies)``, so an exception raised *inside* a cell
would repeat on a re-run: it fails that cell once (outcome ``"failed"``, the
traceback kept), in serial and pooled mode alike.  Three pieces, all wired
through :func:`repro.experiments.grid.run_experiment_grid` and the
``fatpaths-experiment`` CLI:

* **Crash-surviving dispatch** — the executor starts ``jobs`` worker processes
  itself, one pipe each, and hands each worker at most one cell at a time.  A
  worker that dies therefore names the cell it held: only that cell goes back
  to the queue, charged against :data:`CRASH_RETRIES` (after which it is
  quarantined with outcome ``"poisoned"`` instead of wedging the sweep), only
  that worker is replaced, and every other worker keeps its cell and its warm
  path cache.
* **Per-cell wall-clock timeouts** — scale-aware defaults
  (:data:`DEFAULT_CELL_TIMEOUTS`), enforced by killing and replacing the hung
  cell's worker alone; a cell that times out more than
  :data:`TIMEOUT_RETRIES` times ends with outcome ``"timeout"``.
* **Journaled resume** — completed cells append one JSON line to a
  :class:`CellJournal` keyed by :func:`cell_fingerprint` (name, scale, seed,
  topologies — deliberately code-irrelevant).  Lines are written atomically
  (single ``write`` + flush + fsync) with a format version and a SHA-256 of
  their content, the loader refuses any line that fails either check (a
  truncated tail, a changed value) and lets duplicate cells resolve last-wins,
  and ``resume=True`` skips journaled cells.
  Because every scenario derives its rows from per-``(seed, family)`` random
  streams, a resumed run's combined tables are bit-identical to an
  uninterrupted run — ``tools/chaos_grid.py`` proves it under forced aborts.

Chaos hooks (:class:`ChaosSpec`) inject worker SIGKILLs and hangs at cell
granularity so tests and the chaos harness can drive every recovery path
deterministically.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.experiments.common import ExperimentResult, run_experiment
from repro.experiments.grid import GridCell, GridCellResult


#: Worker crashes one cell may cause before it is quarantined as ``poisoned``.
CRASH_RETRIES = 2

#: Wall-clock timeouts one cell may hit before it ends with outcome ``timeout``.
TIMEOUT_RETRIES = 1

#: Scale-aware per-cell wall-clock timeout defaults, in seconds.  Generous on
#: purpose: a healthy cell must never hit them — they exist to unwedge a sweep
#: whose worker is livelocked or swapping, not to police slow cells.
DEFAULT_CELL_TIMEOUTS: Dict[str, float] = {
    "tiny": 300.0,
    "small": 1800.0,
    "medium": 7200.0,
}


def resolve_timeout(cell: GridCell, timeout: Optional[float]) -> float:
    """The wall-clock limit for one cell under a ``timeout=`` argument.

    ``None`` uses :data:`DEFAULT_CELL_TIMEOUTS` by scale; a number applies to
    every cell (``0`` or ``inf`` disables).
    """
    if timeout is None:
        return DEFAULT_CELL_TIMEOUTS.get(cell.scale, max(DEFAULT_CELL_TIMEOUTS.values()))
    return float(timeout) or float("inf")


# ---------------------------------------------------------------- fingerprints
def cell_fingerprint(cell: GridCell) -> str:
    """A stable content key for one grid cell: what it computes, not how.

    Hashes the canonical JSON of ``(name, scale, seed, topologies)`` —
    deliberately *code-irrelevant*, so a journal written before a refactor still
    resumes after it (the golden-row suite is what guards result drift across
    code changes).  The selection is written as the ``kwargs`` list that cells
    carried before they were typed, so journals of that layout keep resuming.
    """
    selection = [] if cell.topologies is None else [["topologies", list(cell.topologies)]]
    payload = json.dumps(
        {"name": cell.name, "scale": cell.scale, "seed": cell.seed, "kwargs": selection},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


# -------------------------------------------------------------------- journal
def _encode(value):
    """Round-trippable JSON encoding of a result value (tuples are tagged)."""
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot journal value of type {type(value).__name__}: {value!r}")


def _decode(value):
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if set(value) == {"__tuple__"}:
            return tuple(_decode(v) for v in value["__tuple__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


#: Journal line format version; lines of any other version are refused.
JOURNAL_VERSION = 1


def _line_digest(record: dict) -> str:
    """SHA-256 of a journal line's canonical JSON, its own ``sha256`` field excluded."""
    body = {key: value for key, value in record.items() if key != "sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CellJournal:
    """Append-only JSONL journal of completed grid cells, keyed by fingerprint.

    One line per completed cell: the format version (:data:`JOURNAL_VERSION`),
    the fingerprint, a human-readable cell label, attempt/elapsed bookkeeping,
    the full serialized :class:`~repro.experiments.common.ExperimentResult` and a
    ``sha256`` of the rest of the line (:func:`_line_digest`).  Lines are
    written in a single ``write`` call and fsynced, so a crash can at worst
    truncate the final line; the next append ends that line first, so it does
    not swallow the new record.  The loader refuses every line that does not
    parse, has another version, or lacks or fails its checksum (counted in
    ``corrupt_lines``; the cell re-runs on resume), and lets duplicates resolve
    last-wins, which makes re-journaling a re-run cell safe.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self.corrupt_lines = 0
        self._records: Dict[str, dict] = {}
        self._fh = None
        self._torn_tail = False
        self._load()

    def _load(self) -> None:
        """Read existing journal lines, refusing corrupt ones (a truncated tail too)."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            for raw in fh:
                self._torn_tail = not raw.endswith(b"\n")
                try:
                    record = json.loads(raw.decode("utf-8"))
                    fingerprint = record["fingerprint"]
                    intact = (record.get("v") == JOURNAL_VERSION
                              and record.get("sha256") == _line_digest(record))
                except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                    intact = False
                if not intact:
                    self.corrupt_lines += 1
                    continue
                self._records[fingerprint] = record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._records

    def record(self, cell: GridCell, result: GridCellResult) -> None:
        """Append one completed cell atomically (no-op if the result has no rows payload).

        Results whose rows/notes/meta cannot be serialized round-trippably are
        skipped rather than journaled lossily — the cell simply re-runs on
        resume.
        """
        if result.result is None:
            return
        try:
            payload = {
                "v": JOURNAL_VERSION,
                "fingerprint": cell_fingerprint(cell),
                "label": cell.label(),
                "attempts": result.attempts,
                "elapsed_seconds": result.elapsed_seconds,
                "result": {
                    "name": result.result.name,
                    "description": result.result.description,
                    "paper_reference": result.result.paper_reference,
                    "rows": _encode(result.result.rows),
                    "notes": _encode(result.result.notes),
                    "meta": _encode(result.result.meta),
                },
            }
            payload["sha256"] = _line_digest(payload)
            line = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
        except TypeError:
            return
        if self._fh is None:
            self._fh = open(self.path, "ab")
            if self._torn_tail:  # end a crash-truncated last line before appending
                line = b"\n" + line
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._records[payload["fingerprint"]] = payload

    def lookup(self, cell: GridCell) -> Optional[GridCellResult]:
        """The journaled result for ``cell`` (outcome ``"journal"``), or ``None``."""
        record = self._records.get(cell_fingerprint(cell))
        if record is None:
            return None
        stored = record["result"]
        result = ExperimentResult(
            name=stored["name"], description=stored["description"],
            paper_reference=stored["paper_reference"], rows=_decode(stored["rows"]),
            notes=_decode(stored["notes"]), meta=_decode(stored["meta"]))
        return GridCellResult(cell=cell, result=result,
                              elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
                              attempts=int(record.get("attempts", 1)),
                              outcome="journal")

    def close(self) -> None:
        """Close the append handle (loaded records stay available)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------- chaos hooks
@dataclass(frozen=True)
class ChaosSpec:
    """Injectable worker faults, matched by substring against ``cell.label()``.

    ``kill`` SIGKILLs the worker on a cell's first attempt (one worker crash,
    then recovery); ``poison`` SIGKILLs on *every* attempt (the cell can never
    complete — it must end quarantined); ``hang`` sleeps ``hang_seconds`` on
    the first attempt (drives the timeout path).  Every hook kills or blocks
    the executing process, so serial mode, where the "worker" is the caller,
    rejects them.
    """

    kill: Tuple[str, ...] = ()
    poison: Tuple[str, ...] = ()
    hang: Tuple[str, ...] = ()
    hang_seconds: float = 3600.0

    @staticmethod
    def _matches(patterns: Tuple[str, ...], label: str) -> bool:
        """True iff any pattern is a substring of the cell label."""
        return any(p in label for p in patterns)

    def apply(self, cell: GridCell, attempt: int) -> None:
        """Fire the configured faults for ``cell``'s ``attempt`` (1-based)."""
        label = cell.label()
        if self._matches(self.poison, label):
            os.kill(os.getpid(), signal.SIGKILL)
        if attempt == 1:
            if self._matches(self.kill, label):
                os.kill(os.getpid(), signal.SIGKILL)
            if self._matches(self.hang, label):
                time.sleep(self.hang_seconds)


# -------------------------------------------------------------------- workers
def _failure(cell: GridCell, exc: BaseException, elapsed: float = 0.0) -> GridCellResult:
    """A ``failed`` result for ``cell`` carrying ``exc`` and the traceback being handled."""
    return GridCellResult(cell=cell, error=f"{type(exc).__name__}: {exc}",
                          traceback=traceback.format_exc(), outcome="failed",
                          elapsed_seconds=elapsed)


def _run_cell_attempt(cell: GridCell, attempt: int,
                      chaos: Optional[ChaosSpec]) -> GridCellResult:
    """Execute one attempt of one cell (module-level so workers can import it).

    An exception raised inside the cell becomes a ``failed`` result; chaos
    hooks fire before the experiment runs.
    """
    start = time.perf_counter()
    try:
        if chaos is not None:
            chaos.apply(cell, attempt)
        result = run_experiment(cell.name, scale=cell.scale, seed=cell.seed,
                                topologies=cell.topologies)
        return GridCellResult(cell=cell, result=result,
                              elapsed_seconds=time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        return _failure(cell, exc, time.perf_counter() - start)


def _worker_loop(conn, chaos: Optional[ChaosSpec]) -> None:
    """An owned worker: run each ``(cell, attempt)`` received on ``conn``, send back the result.

    Returns when the executor closes its end of the pipe.  Pickling a reply
    fails before any byte is written, so an unpicklable result is answered by a
    ``failed`` result in its place.
    """
    while True:
        try:
            cell, attempt = conn.recv()
        except EOFError:
            return
        result = _run_cell_attempt(cell, attempt, chaos)
        try:
            conn.send(result)
        except Exception as exc:  # noqa: BLE001 - the unpicklable result fails its cell alone
            conn.send(_failure(cell, exc, result.elapsed_seconds))


class _Worker:
    """One worker process the executor owns, its pipe, and the one cell it holds."""

    def __init__(self, chaos: Optional[ChaosSpec]) -> None:
        # the default start method: under fork a replacement worker starts
        # without re-importing numpy and the scenario modules
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(target=_worker_loop, args=(child, chaos),
                                               daemon=True)
        self.process.start()
        child.close()
        self.index: Optional[int] = None
        self.deadline = float("inf")

    def kill(self) -> None:
        """SIGKILL the process and drop its pipe.

        Deliberately not joined: waiting for the kernel to reap a killed worker
        stalls the sweep, and ``multiprocessing`` reaps it when the next worker
        starts.
        """
        self.process.kill()
        self.conn.close()


@dataclass
class _CellState:
    """Executor-side bookkeeping for one cell across attempts."""

    attempts: int = 0
    crashes: int = 0
    timeouts: int = 0


# ------------------------------------------------------------------- executor
def run_resilient_grid(cells: Iterable[GridCell], jobs: Optional[int] = None, *,
                       timeout: Optional[float] = None,
                       journal: Optional[str] = None,
                       resume: bool = False,
                       chaos: Optional[ChaosSpec] = None) -> List[GridCellResult]:
    """Run a grid fault-tolerantly; results come back in cell order.

    Serial mode (``jobs`` absent or ``<= 1``) runs each cell once in-process
    and journals it, but cannot preempt a cell, so wall-clock timeouts (and
    chaos hooks, which kill or block the process) require worker processes.
    ``timeout`` is ``None`` (scale defaults) or seconds ``>= 0`` (``0`` or
    ``inf``: no deadline).  ``resume=True`` with a ``journal`` path skips
    already-journaled cells, returning their stored results with outcome
    ``"journal"``.
    """
    cell_list = list(cells)
    if timeout is not None and not float(timeout) >= 0:  # also refuses NaN
        raise ValueError(f"timeout must be None or seconds >= 0, got {timeout!r}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    journal_obj = CellJournal(journal) if journal is not None else None
    results: Dict[int, GridCellResult] = {}
    todo: List[int] = []
    for index, cell in enumerate(cell_list):
        cached = journal_obj.lookup(cell) if (journal_obj is not None and resume) else None
        if cached is not None:
            results[index] = cached
        else:
            todo.append(index)
    try:
        if jobs is None or jobs <= 1 or len(todo) <= 1:
            _run_serial(cell_list, todo, results, chaos, journal_obj)
        else:
            _run_pooled(cell_list, todo, results, min(jobs, len(todo)), timeout, chaos,
                        journal_obj)
    finally:
        if journal_obj is not None:
            journal_obj.close()
    return [results[index] for index in range(len(cell_list))]


def _run_serial(cell_list, todo, results, chaos, journal_obj) -> None:
    """In-process execution, one attempt per cell, with journaling (no preemption)."""
    if chaos is not None:
        raise ValueError("chaos hooks require a worker pool (jobs >= 2); serial "
                         "mode would kill or block the caller")
    for index in todo:
        cell = cell_list[index]
        results[index] = result = _run_cell_attempt(cell, 1, None)
        if journal_obj is not None and result.ok:
            journal_obj.record(cell, result)


def _run_pooled(cell_list, todo, results, workers, timeout, chaos, journal_obj) -> None:
    """Execution on ``workers`` owned processes, surviving crashes and hangs.

    Each worker holds at most one cell, so a worker that dies names its cell:
    only that cell goes back to the queue, charged against
    :data:`CRASH_RETRIES`, and only that worker is replaced.  A cell past its
    deadline likewise has its own worker killed and replaced and is charged
    against :data:`TIMEOUT_RETRIES`; every other worker keeps its cell.
    """
    state = {index: _CellState() for index in todo}
    queue = deque(todo)
    pool = [_Worker(chaos) for _ in range(workers)]

    def settle(index: int, result: GridCellResult, outcome: str) -> None:
        result.attempts, result.outcome = state[index].attempts, outcome
        results[index] = result
        if journal_obj is not None and result.ok:
            journal_obj.record(cell_list[index], result)

    def charge(index: int, count: int, budget: int, outcome: str, error: str) -> None:
        """Re-queue a cell whose worker was lost, or end it once ``count`` exceeds ``budget``."""
        if count > budget:
            settle(index, GridCellResult(cell=cell_list[index], error=error), outcome)
        else:
            queue.append(index)

    try:
        while queue or any(worker.index is not None for worker in pool):
            now = time.monotonic()
            for worker in pool:
                while worker.index is None and queue:
                    index = queue.popleft()
                    state[index].attempts += 1
                    cell = cell_list[index]
                    try:
                        worker.conn.send((cell, state[index].attempts))
                    except Exception as exc:  # noqa: BLE001 - an unpicklable cell fails alone
                        settle(index, _failure(cell, exc), "failed")
                        continue
                    worker.index = index
                    worker.deadline = now + resolve_timeout(cell, timeout)
            if all(worker.index is None for worker in pool):
                continue  # the last queued cells failed to send: nothing to wait for

            # idle workers are waited on too: a ready idle pipe means its worker died
            wake = min(worker.deadline for worker in pool) - time.monotonic()
            ready = connection_wait([w.conn for w in pool],
                                    timeout=None if wake == float("inf") else max(0.0, wake))
            now = time.monotonic()
            for slot, worker in enumerate(pool):
                index = worker.index
                if worker.conn in ready:
                    try:
                        result = worker.conn.recv()
                    except (EOFError, OSError):  # the worker died
                        worker.kill()
                        pool[slot] = _Worker(chaos)
                        if index is not None:
                            cell_state = state[index]
                            cell_state.crashes += 1
                            charge(index, cell_state.crashes, CRASH_RETRIES, "poisoned",
                                   f"WorkerCrash: cell killed its worker "
                                   f"{cell_state.crashes} times; quarantined")
                        continue
                    worker.index, worker.deadline = None, float("inf")
                    settle(index, result, "ok" if result.ok else "failed")
                elif worker.deadline <= now:
                    worker.kill()
                    pool[slot] = _Worker(chaos)
                    cell_state = state[index]
                    cell_state.timeouts += 1
                    limit = resolve_timeout(cell_list[index], timeout)
                    charge(index, cell_state.timeouts, TIMEOUT_RETRIES, "timeout",
                           f"Timeout: cell exceeded {limit:.0f}s wall clock "
                           f"{cell_state.timeouts} times")
    finally:
        for worker in pool:
            worker.kill()
