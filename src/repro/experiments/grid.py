"""Parallel experiment grids: fan independent experiment cells across cores.

An experiment *grid* is the cross product of experiment names, scales and seeds —
exactly the sweeps the paper's figures are built from.  Cells are independent (each
builds its own topologies, layers and routing state), so they parallelise
embarrassingly over worker processes (see :mod:`repro.experiments.resilient`); each
worker process grows its own :mod:`repro.kernels` path cache, which repeated cells on
the same topology then share.

Experiments that iterate several topology families inside one run used to be the
slowest cells and bound the pool's wall clock.  :func:`split_heavy_cells` fans every
scenario that declares a ``topology_names`` axis (see
:mod:`repro.experiments.scenario`) into *per-topology* cells via its ``topologies=``
filter — for the simulation scenarios each such cell is a whole batched
``simulate_many`` StackCell group, so the engine's multi-cell sweeps fan out over
the pool too.  Per-family random streams guarantee the split cells' rows equal the
unsplit run's, so splitting only changes scheduling granularity;
:func:`combine_cell_results` merges split cells back into whole-experiment tables.

Serial execution (``jobs=None`` or ``jobs<=1``) runs in-process, reusing the parent's
cache — useful for debugging and as the baseline in the cached-vs-parallel benchmark.
Cell failures are captured per cell (``GridCellResult.error``) instead of aborting the
whole sweep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult, Scale


@dataclass(frozen=True)
class GridCell:
    """One (experiment, scale, seed) cell of a sweep.

    ``topologies`` selects a subset of the scenario's family axis (the
    per-topology cells of :func:`split_heavy_cells`); ``None`` runs every family.
    """

    name: str
    scale: str = "tiny"
    seed: int = 0
    topologies: Optional[Tuple[str, ...]] = None

    def label(self) -> str:
        """Human-readable cell identifier used by the grid summary report."""
        suffix = f",topo={'+'.join(self.topologies)}" if self.topologies else ""
        return f"{self.name}[scale={self.scale},seed={self.seed}{suffix}]"


@dataclass
class GridCellResult:
    """Outcome of one cell: the experiment result or the captured error.

    ``attempts`` and ``outcome`` record the resilient executor's bookkeeping
    (see :mod:`repro.experiments.resilient`): ``"ok"``, ``"failed"`` (an
    exception raised inside the cell; it runs once), ``"timeout"`` (wall-clock
    limit exceeded on every allowed attempt), ``"poisoned"`` (quarantined after
    repeatedly crashing its worker) or ``"journal"`` (skipped on resume, result
    restored from the journal).  Only a lost worker re-runs a cell.
    ``traceback`` carries the remote cell's full formatted traceback (the CLI
    surfaces it behind ``--verbose-errors``).
    """

    cell: GridCell
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    attempts: int = 1
    outcome: str = "ok"
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff the cell completed without raising."""
        return self.error is None


def make_grid(names: Sequence[str], scales: Sequence[str] = ("tiny",),
              seeds: Sequence[int] = (0,)) -> List[GridCell]:
    """The cross product of names x scales x seeds as grid cells."""
    return [GridCell(name=n, scale=str(Scale(s).value), seed=int(seed))
            for n in names for s in scales for seed in seeds]


def split_heavy_cells(cells: Iterable[GridCell]) -> List[GridCell]:
    """Fan each splittable experiment cell into one cell per topology family.

    Cells of experiments whose spec declares no ``topology_names`` axis, and
    cells that already carry a ``topologies`` selection, pass through unchanged.
    Specs that narrow their axis per scale (``ScenarioSpec.families_at``) only
    spawn the families that actually run at the cell's scale — no zero-row cells.
    The finer cells keep the original order (grouped per parent cell), so summary
    reports stay readable and result concatenation is deterministic.
    """
    from repro.experiments.scenario import scenario_spec

    out: List[GridCell] = []
    for cell in cells:
        try:
            spec = scenario_spec(cell.name)
        except KeyError:
            out.append(cell)
            continue
        families = spec.families_at(cell.scale)
        if not families or cell.topologies is not None:
            out.append(cell)
            continue
        out.extend(replace(cell, topologies=(family,)) for family in families)
    return out


def run_experiment_grid(cells: Iterable[GridCell], jobs: Optional[int] = None, *,
                        timeout: Optional[float] = None, journal: Optional[str] = None,
                        resume: bool = False, chaos=None) -> List[GridCellResult]:
    """Run all cells, serially or across ``jobs`` worker processes.

    Results come back in cell order regardless of completion order.  ``jobs=None``,
    ``0`` or ``1`` runs serially in-process; higher values fan cells out over a
    process pool (one path cache per worker).

    Dispatch goes through :func:`repro.experiments.resilient.run_resilient_grid`:
    an exception inside a cell fails that cell once; a cell whose worker crashes
    or passes its ``timeout`` (seconds, ``0`` for none; scale-aware by default)
    re-runs on a fresh worker within a fixed budget; and a ``journal`` path (with
    ``resume=True``) skips already-completed cells — see ``docs/resilience.md``.
    """
    from repro.experiments.resilient import run_resilient_grid

    return run_resilient_grid(cells, jobs=jobs, timeout=timeout,
                              journal=journal, resume=resume, chaos=chaos)


def combine_cell_results(results: Iterable[GridCellResult]) -> List[ExperimentResult]:
    """Merge split grid cells back into one result per (experiment, scale, seed).

    Cells that came from :func:`split_heavy_cells` carry disjoint per-topology row
    subsets in family order; concatenating them reproduces the unsplit run's table
    (the split contract of the scenario pipeline's common row schema).  Rows and
    dict-valued metadata merge across cells; notes deduplicate in first-seen order;
    failed cells are skipped (they are visible in the grid summary), and the
    per-cell results are never mutated.
    """
    merged: Dict[Tuple, ExperimentResult] = {}
    order: List[Tuple] = []
    for r in results:
        if r.result is None:
            continue
        key = (r.cell.name, r.cell.scale, r.cell.seed)
        current = merged.get(key)
        if current is None:
            result = r.result
            merged[key] = ExperimentResult(
                name=result.name, description=result.description,
                paper_reference=result.paper_reference, rows=list(result.rows),
                notes=list(result.notes), meta=copy.deepcopy(result.meta))
            order.append(key)
            continue
        current.rows.extend(r.result.rows)
        current.notes.extend(n for n in r.result.notes if n not in current.notes)
        for meta_key, value in r.result.meta.items():
            existing = current.meta.get(meta_key)
            if isinstance(existing, dict) and isinstance(value, dict):
                existing.update(value)
            elif meta_key == "topologies" and isinstance(existing, list):
                existing.extend(v for v in value if v not in existing)
            elif meta_key not in current.meta:
                current.meta[meta_key] = value
    return [merged[key] for key in order]


#: outcome -> status word shown in the grid summary (failures uppercased so a
#: glance — or a grep for FAILED — still finds them).
_OUTCOME_STATUS = {"ok": "ok", "journal": "journal", "failed": "FAILED",
                   "timeout": "TIMEOUT", "poisoned": "POISONED"}


@dataclass
class GridSummary:
    """Aggregate view of a finished grid (what the CLI prints)."""

    results: List[GridCellResult] = field(default_factory=list)

    @property
    def num_ok(self) -> int:
        """Number of cells that completed successfully."""
        return sum(1 for r in self.results if r.ok)

    @property
    def num_failed(self) -> int:
        """Number of cells whose error was captured."""
        return len(self.results) - self.num_ok

    def _count(self, predicate) -> int:
        return sum(1 for r in self.results if predicate(r))

    def report(self) -> str:
        """One status line per cell plus an ok/total footer (the CLI output).

        Each line shows the outcome (``ok``/``journal``/``FAILED``/``TIMEOUT``/
        ``POISONED``), row count and attempt count, so a retried or quarantined
        cell is distinguishable from a plain failure; labels are padded to the
        longest cell label so split per-topology cells stay aligned.
        """
        width = max((len(r.cell.label()) for r in self.results), default=0)
        lines = []
        for r in self.results:
            status = _OUTCOME_STATUS.get(r.outcome, r.outcome)
            rows = len(r.result.rows) if r.result is not None else 0
            detail = "" if r.ok else f"  ({r.error})"
            lines.append(f"{r.cell.label():{width}s} {status:>8s}  rows={rows:<5d} "
                         f"attempts={r.attempts:<2d} {r.elapsed_seconds:.1f}s{detail}")
        footer = f"-- {self.num_ok}/{len(self.results)} cells ok"
        extras = []
        journaled = self._count(lambda r: r.outcome == "journal")
        retried = self._count(lambda r: r.outcome == "ok" and r.attempts > 1)
        timeouts = self._count(lambda r: r.outcome == "timeout")
        poisoned = self._count(lambda r: r.outcome == "poisoned")
        if journaled:
            extras.append(f"{journaled} from journal")
        if retried:
            extras.append(f"{retried} retried")
        if timeouts:
            extras.append(f"{timeouts} timed out")
        if poisoned:
            extras.append(f"{poisoned} poisoned")
        if extras:
            footer += " (" + ", ".join(extras) + ")"
        lines.append(footer)
        return "\n".join(lines)
