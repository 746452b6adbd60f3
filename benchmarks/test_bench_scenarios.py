"""Benchmark regenerating every registered scenario: the paper's tables and figures
plus the workload scenarios beyond it.

One case per entry of ``repro.experiments.scenario.SCENARIO_MODULES``, so a scenario
is benchmarked as soon as it is registered.  Run
``pytest benchmarks/test_bench_scenarios.py --benchmark-only -s`` to execute and print
the regenerated rows (``-k fig09`` selects one scenario); set
``FATPATHS_BENCH_SCALE=small|medium`` for larger instances.
"""

import pytest
from conftest import run_experiment_once

from repro.experiments.scenario import SCENARIO_MODULES


@pytest.mark.parametrize("name", sorted(SCENARIO_MODULES))
def test_bench_scenario(benchmark, scale, name):
    result = run_experiment_once(benchmark, name, scale)
    print()
    print(result.report())
