"""Experiment harness: one declarative scenario per table/figure (and beyond).

Every scenario module defines a :class:`~repro.experiments.scenario.ScenarioSpec`
(``SCENARIO``); all specs execute through the shared pipeline in
:mod:`repro.experiments.scenario`, and :func:`repro.experiments.run_experiment` runs
one by name.  :mod:`repro.experiments.runner` provides a CLI
(``fatpaths-experiment <name>``) and :func:`repro.experiments.registry` lists all
scenarios.  ``docs/experiments.md`` maps each of them to the paper figure or table
it reproduces.
"""

from repro.experiments.common import ExperimentResult, Scale, registry, run_experiment
from repro.experiments.scenario import ScenarioSpec, run_scenario, scenario_spec

__all__ = ["ExperimentResult", "Scale", "ScenarioSpec", "registry", "run_experiment",
           "run_scenario", "scenario_spec"]
