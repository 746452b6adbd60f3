"""Command-line entry point for the experiment harness.

Examples
--------
List experiments::

    fatpaths-experiment --list

Run one experiment at a given scale::

    fatpaths-experiment fig09 --scale small
    python -m repro.experiments.runner fig02 --scale tiny --seed 1

Run everything (tiny scale, for a quick end-to-end check)::

    fatpaths-experiment all --scale tiny

Fan an experiment grid across cores — the cross product of experiments, scales and
seeds runs as independent cells on a process pool.  With ``--jobs``, scenarios with
a topology axis are additionally split into per-topology cells so the pool is not
bounded by one slow cell::

    fatpaths-experiment fig06,tab05 --scales tiny,small --seeds 0,1,2 --jobs 8
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import Scale, registry, run_experiment
from repro.experiments.grid import (
    GridSummary,
    combine_cell_results,
    make_grid,
    run_experiment_grid,
    split_heavy_cells,
)


def _parse_seeds(spec: str) -> List[int]:
    """Seed list from a comma list ("0,1,2") or an inclusive range ("0:4")."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",") if s != ""]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``fatpaths-experiment``); returns the process exit code.

    Two modes share one invocation syntax:

    * **Report mode** (default): run each named experiment at ``--scale`` /
      ``--seed`` and print its full table.
    * **Grid mode** (any of ``--jobs`` / ``--scales`` / ``--seeds`` given): build
      the cross product of experiments x scales x seeds as independent cells and
      print a per-cell summary.  ``--seeds`` accepts a comma list (``0,1,2``) or an
      inclusive range (``0:4``); ``--scales`` sweeps scales.  ``--jobs N`` fans the
      cells over ``N`` worker processes (each with its own path cache) and also
      splits scenarios with a topology axis into per-topology cells — identical
      rows, finer scheduling (the simulation scenarios' batched
      ``simulate_many`` groups fan out with them).  ``--tables`` additionally
      prints the merged result tables (split cells recombined).  Cell failures
      are captured per cell and reported in the summary (exit code 1) instead of
      aborting the sweep.

    Grid mode runs on the fault-tolerant executor
    (:mod:`repro.experiments.resilient`): a crashed worker is replaced and only
    its cell re-runs, a hung cell's worker is killed at a scale-aware
    ``--cell-timeout`` (seconds ``>= 0``; ``0`` disables) and the cell re-runs,
    and an exception inside a cell fails it once.  ``--journal PATH`` appends
    completed cells to a JSONL journal and ``--resume`` skips them on a rerun
    (bit-identical combined tables); ``--verbose-errors`` prints failed cells'
    remote tracebacks.  See ``docs/resilience.md``.
    """
    parser = argparse.ArgumentParser(
        prog="fatpaths-experiment",
        description="Regenerate the tables and figures of the FatPaths paper.")
    parser.add_argument("experiment", nargs="?", default=None,
                        help="experiment name(s), comma separated (e.g. fig09,tab04), or 'all'")
    parser.add_argument("--scale", default="tiny", choices=[s.value for s in Scale],
                        help="instance scale (default: tiny)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="limit the number of printed rows")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan grid cells across N worker processes (default: serial)")
    parser.add_argument("--scales", default=None, metavar="S1,S2",
                        help="grid mode: comma-separated scales (overrides --scale)")
    parser.add_argument("--seeds", default=None, metavar="SPEC",
                        help="grid mode: comma list ('0,1,2') or inclusive range ('0:4') "
                             "of seeds (overrides --seed)")
    parser.add_argument("--tables", action="store_true",
                        help="grid mode: also print the merged result tables "
                             "(split cells recombined per experiment)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="grid mode: append completed cells to a JSONL journal "
                             "(atomic line writes; see docs/resilience.md)")
    parser.add_argument("--resume", action="store_true",
                        help="grid mode: skip cells already recorded in --journal "
                             "(resumed tables are bit-identical to an "
                             "uninterrupted run)")
    parser.add_argument("--verbose-errors", action="store_true",
                        help="print the full remote traceback of every failed cell "
                             "after the grid summary")
    parser.add_argument("--cell-timeout", type=float, default=None, metavar="SECONDS",
                        help="grid mode: per-cell wall-clock limit (default: "
                             "scale-aware; 0 disables)")
    args = parser.parse_args(argv)

    if args.list or args.experiment is None:
        from repro.experiments.scenario import scenario_spec

        print("available experiments:")
        for name in sorted(registry()):
            spec = scenario_spec(name)
            axis = f" [splittable: {'+'.join(spec.topology_names)}]" \
                if spec.splittable else ""
            print(f"  {name:8s} {spec.paper_reference:24s} {spec.title}{axis}")
        return 0

    names = (sorted(registry()) if args.experiment == "all"
             else [n for n in args.experiment.split(",") if n])
    unknown = [n for n in names if n not in registry()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    # Grid mode (per-cell summary instead of full reports) when a sweep, parallel,
    # table-merge or journal flag is given; plain "all" or comma lists print
    # every table.
    grid_mode = (args.jobs is not None or args.scales is not None
                 or args.seeds is not None or args.tables
                 or args.journal is not None or args.resume)
    if args.resume and args.journal is None:
        print("--resume requires --journal PATH", file=sys.stderr)
        return 2
    if args.cell_timeout is not None and not args.cell_timeout >= 0:  # also NaN
        print(f"invalid --cell-timeout: {args.cell_timeout} (use seconds >= 0; "
              "0 disables)", file=sys.stderr)
        return 2
    if grid_mode:
        scales = ([s for s in args.scales.split(",") if s] if args.scales
                  else [args.scale])
        valid_scales = {s.value for s in Scale}
        bad_scales = [s for s in scales if s not in valid_scales]
        if bad_scales:
            print(f"invalid --scales value(s): {', '.join(bad_scales)} "
                  f"(choose from {', '.join(sorted(valid_scales))})", file=sys.stderr)
            return 2
        try:
            seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
        except ValueError:
            print(f"invalid --seeds spec: {args.seeds!r} "
                  "(use a comma list '0,1,2' or an inclusive range '0:4')", file=sys.stderr)
            return 2
        cells = make_grid(names, scales=scales, seeds=seeds)
        if args.jobs is not None:
            cells = split_heavy_cells(cells)
        if not cells:
            print("grid is empty (no seeds selected)", file=sys.stderr)
            return 2
        start = time.perf_counter()
        results = run_experiment_grid(cells, jobs=args.jobs, timeout=args.cell_timeout,
                                      journal=args.journal, resume=args.resume)
        elapsed = time.perf_counter() - start
        summary = GridSummary(results=results)
        print(summary.report())
        if args.verbose_errors:
            for r in results:
                if not r.ok and r.traceback:
                    print(f"\n-- traceback for {r.cell.label()}:\n{r.traceback}",
                          end="")
        if args.tables:
            for combined in combine_cell_results(results):
                print()
                print(combined.report())
        mode = f"{args.jobs} workers" if args.jobs and args.jobs > 1 else "serial"
        print(f"\n[{len(results)} cells completed in {elapsed:.1f}s ({mode})]")
        return 0 if summary.num_failed == 0 else 1

    for name in names:
        start = time.perf_counter()
        result = run_experiment(name, scale=args.scale, seed=args.seed)
        elapsed = time.perf_counter() - start
        print(result.report() if args.max_rows is None else
              "\n".join([f"== {result.name}: {result.description}",
                         result.to_table(max_rows=args.max_rows)]))
        print(f"\n[{name} completed in {elapsed:.1f}s at scale={args.scale}]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
