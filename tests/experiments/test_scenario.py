"""Scenario registry and pipeline tests.

Three contracts are pinned here:

* **Registry completeness** — every experiment module in ``repro.experiments``
  is registered, defines a well-formed ``SCENARIO`` spec and a ``run`` alias.
* **Golden-row equivalence** — the pipeline's rows are bit-identical to the
  legacy per-module entry points, captured pre-refactor in
  ``golden/tiny_seed0.json`` (regenerate deliberately via
  ``tools/make_golden_rows.py``).
* **Split/pool stability** — per-family RNG streams make split grid cells (and
  pooled ``--jobs`` runs) reproduce unsplit rows exactly, including for the
  scenarios that became splittable with the registry (fig12-17, incast, shuffle).
"""

import json
import pkgutil
from pathlib import Path

import pytest
from test_experiments import result_of

import repro.experiments
from repro.experiments.common import Scale, run_experiment
from repro.experiments.grid import (
    GridCell,
    combine_cell_results,
    run_experiment_grid,
    split_heavy_cells,
)
from repro.experiments.runner import main as runner_main
from repro.experiments.scenario import (
    SCENARIO_MODULES,
    ScenarioSpec,
    all_scenario_specs,
    normalized_rows,
    run_scenario,
    scenario_spec,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "tiny_seed0.json").read_text())

#: Infrastructure modules of the experiments package (everything else must be a
#: registered scenario module).
_NON_SCENARIO_MODULES = {"common", "grid", "resilient", "runner", "scenario",
                         "simcommon"}


def _normalize(rows):
    """Rows through the same JSON normalisation the golden fixture was written with
    (the shared helper, plus a JSON round trip matching the fixture file)."""
    return json.loads(json.dumps(normalized_rows(rows)))


class TestRegistryCompleteness:
    def test_every_package_module_is_registered(self):
        found = {name for _, name, _ in pkgutil.iter_modules(repro.experiments.__path__)
                 if name not in _NON_SCENARIO_MODULES}
        registered = {path.rsplit(".", 1)[1] for path in SCENARIO_MODULES.values()}
        assert found == registered

    def test_every_spec_is_well_formed(self):
        for name, spec in all_scenario_specs().items():
            assert isinstance(spec, ScenarioSpec)
            assert spec.name == name
            assert spec.title and spec.paper_reference
            assert callable(spec.plan)
            if spec.topology_names is not None:
                assert spec.splittable
                assert len(spec.topology_names) >= 2

    def test_splittable_families_come_from_specs(self):
        for name, spec in all_scenario_specs().items():
            cells = split_heavy_cells([GridCell(name=name, scale="small")])
            if spec.topology_names is None:
                assert cells == [GridCell(name=name, scale="small")]
            else:
                assert [c.topologies for c in cells] == [
                    (family,) for family in spec.families_at("small")]

    def test_new_scenarios_are_registered_and_splittable(self):
        for name in ("incast", "shuffle"):
            spec = scenario_spec(name)
            assert spec.splittable
            assert spec.topology_names == ("SF", "DF", "HX3", "XP", "FT3")
        fidelity = scenario_spec("fidelity")
        assert fidelity.splittable
        assert fidelity.topology_names == ("SF", "FT3")

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario_spec("fig99")


class TestGoldenRows:
    """The pipeline reproduces the legacy modules' tables bit-for-bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_rows_match_golden(self, name):
        result = result_of(name)
        assert _normalize(result.rows) == GOLDEN[name]

    def test_golden_covers_every_registered_scenario(self):
        # the fixture is regenerated by tools/make_golden_rows.py over the whole
        # registry, so a newly registered scenario must come with a regeneration
        assert set(GOLDEN) == set(SCENARIO_MODULES)


class TestRowSchema:
    def test_rows_are_flat_typed_records(self):
        for name in ("fig06", "incast", "tab01"):
            result = result_of(name)
            spec = scenario_spec(name)
            for row in result.rows:
                for column in spec.base_columns:
                    assert column in row
                for value in row.values():
                    assert value is None or isinstance(
                        value, (str, int, float, bool))

    def test_non_scalar_row_rejected(self):
        spec = ScenarioSpec(name="bad", title="t", paper_reference="r",
                            plan=lambda ctx: iter([{"x": [1, 2]}]))
        with pytest.raises(TypeError):
            run_scenario(spec)

    def test_missing_base_column_rejected(self):
        spec = ScenarioSpec(name="bad", title="t", paper_reference="r",
                            plan=lambda ctx: iter([{"x": 1}]),
                            base_columns=("x", "y"))
        with pytest.raises(ValueError):
            run_scenario(spec)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            run_experiment("fig07", scale="tiny", num_samples=3)

    def test_topologies_rejected_without_axis(self):
        with pytest.raises(TypeError):
            run_experiment("fig10", scale="tiny", topologies=["SF"])

    def test_empty_selection_yields_no_rows_everywhere(self):
        # consistent across scenario styles, including builders that would treat
        # an empty topology list as "everything"
        for name in ("incast", "fig02", "fig12"):
            assert run_experiment(name, scale="tiny", topologies=[]).rows == []

    def test_scale_inactive_family_selection_fails_loudly(self):
        # HX3 is on fig17's axis but does not run at tiny scale
        with pytest.raises(ValueError):
            run_experiment("fig17", scale="tiny", topologies=["HX3"])

    def test_fig09_records_its_fixed_intensity(self):
        from repro.experiments.fig09_theoretical_mat import INTENSITY

        assert INTENSITY == 0.55
        assert result_of("fig09").meta["intensity"] == INTENSITY

    @pytest.mark.parametrize("name, column", [("tab04", "topology"),
                                              ("tab05", "short_name")])
    def test_every_family_but_the_clique_has_its_jellyfish_twin(self, name, column):
        """Each twin row directly follows its family's row."""
        names = [row[column] for row in result_of(name).rows]
        families = [n for n in names if not n.endswith("-JF")]
        expected = [[family] if family == "CLIQUE" else [family, f"{family}-JF"]
                    for family in families]
        assert names == [n for pair in expected for n in pair]


def _recording_spec(seen, **axis):
    """A spec whose plan records the families its context hands it."""
    return ScenarioSpec(name="probe", title="t", paper_reference="r",
                        plan=lambda ctx: seen.append(ctx.topologies) or (), **axis)


class TestScenarioContext:
    @pytest.mark.parametrize("scale, selection, expected", [
        ("tiny", None, ("A", "C")),
        ("small", None, ("A", "B", "C")),
        ("small", ["C", "A"], ("A", "C")),
        ("tiny", ["C"], ("C",)),
    ])
    def test_topologies_are_the_families_that_run(self, scale, selection, expected):
        """The axis, narrowed to the scale's families and to the selection, in
        axis order: what a plan iterates and what ``meta`` reports."""
        seen = []
        spec = _recording_spec(
            seen, topology_names=("A", "B", "C"),
            scale_families=lambda s: ("A", "C") if s is Scale.TINY else ("A", "B", "C"))
        result = run_scenario(spec, scale=scale, topologies=selection)
        assert seen == [expected]
        assert result.meta["topologies"] == list(expected)

    def test_no_axis_hands_the_plan_no_families(self):
        seen = []
        result = run_scenario(_recording_spec(seen), scale="tiny")
        assert seen == [None]
        assert "topologies" not in result.meta


#: Scenarios that became splittable with the registry (their per-family streams
#: were already independent; the spec now declares the axis), plus fig04/08/09,
#: whose sampling was re-derived from per-family ``topology_rng`` streams (with a
#: deliberate golden-row regeneration) so they could join the split axis too, and
#: fidelity, which was born splittable on the packet engine.
NEWLY_SPLITTABLE = ("fig04", "fig08", "fig09", "fig12", "fig14", "fig16", "fig17",
                    "fidelity", "incast", "shuffle", "steady")


class TestFidelityAgreement:
    """The flow-vs-packet fidelity scenario: the two simulation models agree
    within the declared bands on every (topology, stack) cell at tiny scale."""

    def test_models_agree_everywhere(self):
        result = result_of("fidelity")
        assert len(result.rows) == 6
        for row in result.rows:
            assert row["agree_p50"], row
            assert row["agree_p99"], row

    def test_rows_cover_the_declared_grid(self):
        from repro.experiments.fidelity import STACKS, TOPOLOGY_NAMES

        result = result_of("fidelity")
        assert [(row["topology"], row["stack"]) for row in result.rows] == [
            (topo, stack) for topo in TOPOLOGY_NAMES for stack in STACKS]

    def test_ratios_are_consistent(self):
        # the reported ratio columns agree with the percentile columns they
        # summarize (up to their rounding)
        for row in result_of("fidelity").rows:
            assert row["fct_p50_ratio"] == pytest.approx(
                row["packet_fct_p50_ms"] / row["flow_fct_p50_ms"], abs=5e-3)
            assert row["fct_p99_ratio"] == pytest.approx(
                row["packet_fct_p99_ms"] / row["flow_fct_p99_ms"], abs=5e-3)


class TestSplitStability:
    @pytest.mark.parametrize("name", NEWLY_SPLITTABLE)
    def test_split_rows_equal_unsplit_rows(self, name):
        full = result_of(name)
        cells = split_heavy_cells([GridCell(name=name, scale="tiny", seed=0)])
        assert len(cells) >= 2
        results = run_experiment_grid(cells)
        assert all(r.ok for r in results)
        combined = [row for r in results for row in r.result.rows]
        assert combined == full.rows

    def test_pool_jobs_match_serial_for_split_cells(self):
        cells = split_heavy_cells([GridCell(name="incast", scale="tiny", seed=3),
                                   GridCell(name="fig12", scale="tiny", seed=3)])
        serial = run_experiment_grid(cells, jobs=None)
        pooled = run_experiment_grid(cells, jobs=2)
        assert [r.cell for r in serial] == [r.cell for r in pooled]
        for s, p in zip(serial, pooled):
            assert s.ok and p.ok
            assert s.result.rows == p.result.rows

    def test_combine_cell_results_restores_full_table(self):
        full = result_of("fig13")
        cells = split_heavy_cells([GridCell(name="fig13", scale="tiny", seed=0)])
        combined = combine_cell_results(run_experiment_grid(cells))
        assert len(combined) == 1
        merged = combined[0]
        assert merged.rows == full.rows
        assert merged.notes == full.notes
        # dict-valued meta merges across per-family cells
        assert set(merged.meta["fct_histograms"]) == set(full.meta["fct_histograms"])
        assert merged.meta["topologies"] == list(full.meta["topologies"])

    def test_split_skips_scale_inactive_families(self):
        # fig17 runs only SF+DF at tiny: no zero-row worker cells are dispatched
        cells = split_heavy_cells([GridCell(name="fig17", scale="tiny", seed=0)])
        assert [c.topologies for c in cells] == [("SF",), ("DF",)]
        spec = scenario_spec("fig17")
        assert spec.families_at("tiny") == ("SF", "DF")
        assert spec.families_at("small") == spec.topology_names

    def test_combine_does_not_mutate_cell_results(self):
        cells = split_heavy_cells([GridCell(name="fig13", scale="tiny", seed=0)])
        results = run_experiment_grid(cells)
        combine_cell_results(results)
        # each per-family cell still carries only its own histogram and family
        for r in results:
            family = r.cell.topologies[0]
            assert list(r.result.meta["fct_histograms"]) == [family]
            assert r.result.meta["topologies"] == [family]

    def test_combine_keeps_distinct_seeds_apart(self):
        cells = split_heavy_cells([GridCell(name="fig04", scale="tiny", seed=seed)
                                   for seed in (0, 1)])
        assert len(cells) == 6
        combined = combine_cell_results(run_experiment_grid(cells))
        assert [c.rows for c in combined] == [
            run_experiment("fig04", scale="tiny", seed=seed).rows for seed in (0, 1)]

    def test_cli_tables_flag_prints_merged_report(self, capsys):
        assert runner_main(["tab05,fig19", "--jobs", "2", "--tables"]) == 0
        out = capsys.readouterr().out
        assert "cells ok" in out
        assert "reproduces Table V" in out
        assert "reproduces Figure 19" in out
