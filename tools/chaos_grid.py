#!/usr/bin/env python3
"""Chaos harness for the fault-tolerant grid executor (``docs/resilience.md``).

Two drills over a real experiment grid, exercising every recovery path of
:mod:`repro.experiments.resilient` end to end:

* **smoke** — runs the grid on a worker pool with injected faults (one worker
  SIGKILLed mid-cell, one cell hung until its wall-clock timeout fires) and
  asserts that every cell still completes ``ok`` with rows bit-identical to a
  clean serial run.
* **resume** — launches the grid runner in a subprocess with ``--journal``,
  SIGKILLs the whole process group mid-sweep (a *real* forced abort — the
  journal may end in a truncated line), then resumes in-process with the same
  journal and asserts the combined tables (rows, notes, metadata) are
  bit-identical to an uninterrupted run.

Run:  PYTHONPATH=src python tools/chaos_grid.py --scale tiny --jobs 2
CI runs both drills in the chaos-smoke job; exit code 0 means all asserts held.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.grid import (  # noqa: E402
    GridSummary,
    combine_cell_results,
    make_grid,
    run_experiment_grid,
    split_heavy_cells,
)
from repro.experiments.resilient import CellJournal, ChaosSpec  # noqa: E402

#: Default grid: one splittable scenario (fans into per-topology cells) plus one
#: unsplittable one, so both cell shapes go through every drill.
DEFAULT_EXPERIMENTS = "fig06,tab05"


def build_cells(experiments: str, scale: str):
    """The drill grid: split cells of ``experiments`` at ``scale``, seed 0."""
    names = [n for n in experiments.split(",") if n]
    return split_heavy_cells(make_grid(names, scales=[scale], seeds=[0]))


def assert_tables_equal(expected, actual, context: str) -> None:
    """Assert two combined result lists match bit-for-bit (rows, notes, meta)."""
    assert len(expected) == len(actual), \
        f"{context}: {len(expected)} vs {len(actual)} combined results"
    for want, got in zip(expected, actual):
        assert want.name == got.name, f"{context}: result order diverged"
        assert want.rows == got.rows, f"{context}: rows differ for {want.name}"
        assert want.notes == got.notes, f"{context}: notes differ for {want.name}"
        assert want.meta == got.meta, f"{context}: meta differs for {want.name}"


def drill_smoke(cells, clean, jobs: int) -> None:
    """Worker kill + hang-until-timeout; all cells recover."""
    labels = [cell.label() for cell in cells]
    assert len(labels) >= 2, "smoke drill needs at least two cells"
    chaos = ChaosSpec(kill=(labels[0],), hang=(labels[len(labels) // 2],),
                      hang_seconds=120.0)
    start = time.perf_counter()
    results = run_experiment_grid(cells, jobs=jobs, chaos=chaos, timeout=10.0)
    print(GridSummary(results=results).report())
    bad = [(r.cell.label(), r.outcome, r.error) for r in results if not r.ok]
    assert not bad, f"smoke drill left unrecovered cells: {bad}"
    injected = {labels[0], labels[len(labels) // 2]}
    retried = {r.cell.label() for r in results if r.attempts > 1}
    assert injected <= retried, \
        f"injected faults did not force retries: {injected - retried}"
    for want, got in zip(clean, results):
        assert want.result.rows == got.result.rows, \
            f"chaos run diverged from clean run on {got.cell.label()}"
    print(f"smoke drill ok: {len(cells)} cells recovered from worker kill "
          f"and hang in {time.perf_counter() - start:.1f}s\n")


def drill_resume(cells, clean, experiments: str, scale: str, jobs: int,
                 journal_path: str) -> None:
    """Forced mid-sweep abort (SIGKILL of the runner) + journaled resume."""
    command = [sys.executable, "-m", "repro.experiments.runner", experiments,
               "--scale", scale, "--seeds", "0", "--jobs", str(jobs),
               "--journal", journal_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}" + env.get("PYTHONPATH", "")
    process = subprocess.Popen(command, cwd=REPO, env=env, start_new_session=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # Abort mid-sweep: wait for at least one journaled cell, then SIGKILL the
    # whole process group (runner and workers alike — no cleanup handlers run).
    deadline = time.monotonic() + 120.0
    aborted = False
    while time.monotonic() < deadline:
        if process.poll() is not None:
            break  # sweep finished before we could abort (still a valid resume)
        if os.path.exists(journal_path) and os.path.getsize(journal_path) > 0:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            aborted = True
            break
        time.sleep(0.02)
    else:
        os.killpg(process.pid, signal.SIGKILL)
        raise AssertionError("runner produced no journal entries within 120s")
    journal = CellJournal(journal_path)
    print(f"aborted={aborted}; journal holds {len(journal)} cells "
          f"({journal.corrupt_lines} corrupt tail lines tolerated)")
    assert len(journal) >= 1, "forced abort left an empty journal"

    results = run_experiment_grid(cells, jobs=jobs, journal=journal_path,
                                  resume=True)
    print(GridSummary(results=results).report())
    assert all(r.ok for r in results), \
        [(r.cell.label(), r.error) for r in results if not r.ok]
    resumed = sum(1 for r in results if r.outcome == "journal")
    assert_tables_equal(combine_cell_results(clean), combine_cell_results(results),
                        "resumed vs uninterrupted")
    print(f"resume drill ok: {resumed}/{len(cells)} cells restored from the "
          "journal, combined tables bit-identical to the uninterrupted run\n")


def main(argv=None) -> int:
    """Run the requested chaos drills; exit 0 iff every assertion held."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "medium"])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--experiments", default=DEFAULT_EXPERIMENTS,
                        help=f"comma-separated scenario names "
                             f"(default: {DEFAULT_EXPERIMENTS})")
    parser.add_argument("--drill", default="all",
                        choices=["smoke", "resume", "all"])
    args = parser.parse_args(argv)

    cells = build_cells(args.experiments, args.scale)
    print(f"== chaos grid: {len(cells)} cells, {args.jobs} workers, "
          f"scale {args.scale}")
    clean = run_experiment_grid(cells, jobs=None)
    assert all(r.ok for r in clean), "clean reference run failed"
    if args.drill in ("smoke", "all"):
        drill_smoke(cells, clean, args.jobs)
    if args.drill in ("resume", "all"):
        with tempfile.TemporaryDirectory() as tmp:
            drill_resume(cells, clean, args.experiments, args.scale, args.jobs,
                         os.path.join(tmp, "grid-journal.jsonl"))
    print("chaos harness: all drills passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
