"""Shared helpers for the benchmark harness.

``test_bench_scenarios.py`` regenerates every registered scenario (each paper
table/figure and the workload scenarios) via the experiment harness
(``repro.experiments``).  Experiment benchmarks run a single round (they are end-to-end
reproductions, not microbenchmarks); the microbenchmarks in ``test_bench_kernels.py``
use pytest-benchmark's default calibration.

Set the environment variable ``FATPATHS_BENCH_SCALE`` to ``small`` or ``medium`` to run
the benchmarks closer to the paper's instance sizes (default: ``tiny``).
"""

import os

import pytest

from repro.experiments.common import Scale, run_experiment
from repro.topologies import slim_fly

#: Slim Fly size per FATPATHS_BENCH_SCALE for the legacy-vs-kernel and
#: cached-vs-uncached comparisons (tiny: 50 routers, small: 162, medium: 578).
#: Shared here so both suites always benchmark the same graphs.
SCALE_Q = {"tiny": 5, "small": 9, "medium": 17}


def bench_scale() -> Scale:
    return Scale(os.environ.get("FATPATHS_BENCH_SCALE", "tiny"))


@pytest.fixture(scope="session")
def scale() -> Scale:
    return bench_scale()


@pytest.fixture(scope="session")
def kgraph(scale):
    """Scale-dependent Slim Fly instance for the before/after benchmark pairs."""
    return slim_fly(SCALE_Q[scale.value])


def run_experiment_once(benchmark, name: str, scale: Scale, **kwargs):
    """Benchmark one experiment with a single round and return its result."""
    result = benchmark.pedantic(
        run_experiment, args=(name,), kwargs={"scale": scale, "seed": 0, **kwargs},
        rounds=1, iterations=1, warmup_rounds=0)
    assert result.rows, f"experiment {name} produced no rows"
    return result
