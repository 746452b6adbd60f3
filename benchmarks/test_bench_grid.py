"""Pooled-vs-sequential and plain-vs-resilient benchmarks for grid execution.

The scenario pipeline makes every topology-axis experiment splittable into
per-family grid cells, each carrying its family's whole batched ``simulate_many``
StackCell group — so the engine's multi-cell sweeps fan out over the process pool.
This pair times the same splittable simulation scenarios once sequentially
in-process and once split across a two-worker pool, and pins the split contract
(identical rows) while reporting the wall-clock ratio.

The executor pair times the same healthy pooled sweep under a bare
``ProcessPoolExecutor.map`` over the resilient executor's own per-cell function
(built here, as the baseline) and under the fault-tolerant executor
(:mod:`repro.experiments.resilient`: owned workers holding one cell each, per-cell
deadlines, re-run bookkeeping) and asserts the resilient path stays within **1.15x** of
plain — fault tolerance must be effectively free when nothing fails.  The pair
is consolidated into ``BENCH_flowsim.json`` (section ``grid_executor``) by
``tools/bench_report.py``.

Run ``pytest benchmarks/test_bench_grid.py --benchmark-only -s``; set
``FATPATHS_BENCH_SCALE=small|medium`` for larger instances.
"""

import functools
import time
from concurrent.futures import ProcessPoolExecutor

from repro.experiments import resilient
from repro.experiments.grid import (
    GridCell,
    run_experiment_grid,
    split_heavy_cells,
)

#: Healthy-sweep overhead ceiling: resilient executor vs plain ``pool.map``.
RESILIENT_OVERHEAD_CEILING = 1.15

#: Splittable simulation scenarios swept by the pooled-vs-sequential pair.
SCENARIOS = ("fig12", "incast")

#: Seeds of the overhead gate's sweep: four (32 cells), so each timed sweep is
#: long enough that scheduler noise is small against it.
OVERHEAD_SEEDS = (0, 1, 2, 3)

#: Interleaved rounds of the overhead gate (the ratio compares the minima); the
#: executor that runs first alternates per round.  Many short rounds, rather
#: than a few long ones, give each executor's minimum a quiet stretch of a
#: shared, drifting host.
OVERHEAD_ROUNDS = 12


def _cells(scale, seeds=(0,)):
    return split_heavy_cells(
        [GridCell(name=name, scale=scale.value, seed=seed)
         for seed in seeds for name in SCENARIOS])


def _plain_pool(cells):
    """The healthy sweep as a bare two-worker ``pool.map``: one attempt per cell,
    no deadlines, retries or journal (one crashed worker would abort the sweep).
    Both executors start two workers with the default start method, so the ratio
    isolates dispatch and bookkeeping."""
    run_once = functools.partial(resilient._run_cell_attempt, attempt=1, chaos=None)
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run_once, cells))


def test_bench_simulate_many_sequential(benchmark, scale):
    results = benchmark.pedantic(run_experiment_grid, args=(_cells(scale),),
                                 kwargs={"jobs": None},
                                 rounds=1, iterations=1, warmup_rounds=0)
    assert all(r.ok for r in results)


def test_bench_simulate_many_pooled(benchmark, scale):
    results = benchmark.pedantic(run_experiment_grid, args=(_cells(scale),),
                                 kwargs={"jobs": 2},
                                 rounds=1, iterations=1, warmup_rounds=0)
    assert all(r.ok for r in results)


def test_bench_grid_plain_pool(benchmark, scale):
    """Baseline: the healthy sweep on the bare ``pool.map`` executor."""
    results = benchmark.pedantic(_plain_pool, args=(_cells(scale),),
                                 rounds=1, iterations=1, warmup_rounds=0)
    assert all(r.ok for r in results)


def test_bench_grid_resilient_pool(benchmark, scale):
    """The same healthy sweep on the fault-tolerant executor (default path)."""
    results = benchmark.pedantic(run_experiment_grid, args=(_cells(scale),),
                                 kwargs={"jobs": 2},
                                 rounds=1, iterations=1, warmup_rounds=0)
    assert all(r.ok for r in results)


def test_grid_resilient_overhead(scale):
    """Resilient-executor overhead on a healthy sweep stays within the ceiling.

    Interleaved min-of-rounds wall-clock comparison over four seeds of the
    sweep: per-run pool startup and scheduler noise cancel in the minimum, and
    the executor that runs first alternates per round, so neither side always
    inherits the other's warm (or cold) machine.  The ratio isolates the
    executor's own bookkeeping.
    """
    cells = _cells(scale, OVERHEAD_SEEDS)
    plain_times, resilient_times = [], []

    def timed(run, times):
        start = time.perf_counter()
        results = run()
        times.append(time.perf_counter() - start)
        return results

    for round_index in range(OVERHEAD_ROUNDS):
        if round_index % 2:
            resilient = timed(lambda: run_experiment_grid(cells, jobs=2), resilient_times)
            plain = timed(lambda: _plain_pool(cells), plain_times)
        else:
            plain = timed(lambda: _plain_pool(cells), plain_times)
            resilient = timed(lambda: run_experiment_grid(cells, jobs=2), resilient_times)
        assert all(r.ok for r in plain) and all(r.ok for r in resilient)
        for p, r in zip(plain, resilient):
            assert p.result.rows == r.result.rows
    ratio = min(resilient_times) / max(min(plain_times), 1e-9)
    print(f"\ngrid executor {scale.value}: plain {min(plain_times):.2f}s, "
          f"resilient {min(resilient_times):.2f}s over {len(cells)} cells "
          f"(overhead {ratio:.3f}x, ceiling {RESILIENT_OVERHEAD_CEILING}x)")
    assert ratio <= RESILIENT_OVERHEAD_CEILING, (
        f"resilient executor overhead {ratio:.3f}x exceeds the "
        f"{RESILIENT_OVERHEAD_CEILING}x ceiling on a healthy sweep")


def test_pooled_rows_match_sequential(scale):
    """Time both executions on identical cells and pin the split contract."""
    cells = _cells(scale)
    start = time.perf_counter()
    sequential = run_experiment_grid(cells, jobs=None)
    sequential_seconds = time.perf_counter() - start
    start = time.perf_counter()
    pooled = run_experiment_grid(cells, jobs=2)
    pooled_seconds = time.perf_counter() - start
    assert all(r.ok for r in sequential) and all(r.ok for r in pooled)
    for s, p in zip(sequential, pooled):
        assert s.cell == p.cell
        assert s.result.rows == p.result.rows
    print(f"\ngrid {scale.value}: sequential {sequential_seconds:.2f}s, "
          f"2-worker pool {pooled_seconds:.2f}s over {len(cells)} cells "
          f"(ratio {sequential_seconds / max(pooled_seconds, 1e-9):.2f}x)")
