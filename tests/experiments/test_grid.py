"""Tests for the parallel experiment grid runner."""

import pytest

from repro.experiments.common import run_experiment
from repro.experiments.grid import (
    GridCell,
    GridSummary,
    make_grid,
    run_experiment_grid,
    split_heavy_cells,
)
from repro.experiments.runner import main as runner_main


class TestMakeGrid:
    def test_cross_product(self):
        cells = make_grid(["fig06", "tab05"], scales=["tiny"], seeds=[0, 1])
        assert len(cells) == 4
        assert {(c.name, c.seed) for c in cells} == {
            ("fig06", 0), ("fig06", 1), ("tab05", 0), ("tab05", 1)}

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            make_grid(["fig06"], scales=["huge"])

    def test_positional_axes(self):
        """``make_grid(names, scales, seeds)``, as the benchmark and tools call it."""
        cells = make_grid(["fig07"], ["tiny", "small"], [2])
        assert cells == [GridCell("fig07", "tiny", 2), GridCell("fig07", "small", 2)]
        assert all(c.topologies is None for c in cells)


class TestSplitHeavyCells:
    def test_heavy_cells_fan_out_per_topology(self):
        cells = split_heavy_cells(make_grid(["fig07", "tab05"], seeds=[0]))
        fig07_cells = [c for c in cells if c.name == "fig07"]
        topos = [c.topologies for c in fig07_cells]
        assert topos == [("SF",), ("SF-JF",), ("DF",), ("HX3",)]
        # non-splittable experiments pass through unchanged
        assert [c for c in cells if c.name == "tab05"] == [GridCell(name="tab05")]

    def test_explicit_topology_selection_not_resplit(self):
        cell = GridCell(name="fig07", topologies=("SF",))
        assert split_heavy_cells([cell]) == [cell]

    def test_splittable_families_derived_from_modules(self):
        """Families come from each module's TOPOLOGY_NAMES (no drift possible)."""
        def families(name):
            return [c.topologies for c in split_heavy_cells([GridCell(name, "small")])]

        def one_per_family(*names):
            return [(name,) for name in names]

        assert families("fig06") == one_per_family("SF", "DF", "HX3", "XP", "FT3")
        assert families("tab04") == one_per_family("CLIQUE", "SF", "XP", "HX3", "DF", "FT3")
        assert families("tab05") == [None]   # no TOPOLOGY_NAMES attr
        assert families("nope") == [None]    # unknown experiment
        # the heavy simulation experiments split too
        assert families("fig02") == one_per_family("SF", "DF", "HX3", "XP", "FT3")
        assert families("fig11") == one_per_family("SF", "DF", "HX3", "XP", "FT3")

    def test_fig02_split_rows_equal_unsplit_rows(self):
        """The simulation experiments keep the splittable contract: per-family cells
        reproduce the full run's rows exactly (per-family RNG + batched engine)."""
        full = run_experiment("fig02", scale="tiny", seed=1)
        cells = split_heavy_cells([GridCell(name="fig02", scale="tiny", seed=1)])
        results = run_experiment_grid(cells)
        combined = [row for r in results for row in r.result.rows]
        assert combined == full.rows

    def test_label_shows_topology(self):
        cell = split_heavy_cells([GridCell(name="fig07")])[0]
        assert "topo=SF" in cell.label()

    def test_split_rows_equal_unsplit_rows(self):
        """Per-topology cells must reproduce the full run's rows exactly."""
        full = run_experiment("fig07", scale="tiny", seed=3)
        cells = split_heavy_cells([GridCell(name="fig07", scale="tiny", seed=3)])
        results = run_experiment_grid(cells)
        combined = [row for r in results for row in r.result.rows]
        assert combined == full.rows

    def test_unknown_topology_selection_fails_loudly(self):
        with pytest.raises(ValueError):
            run_experiment("fig07", scale="tiny", seed=0, topologies=["NOPE"])


class TestRunGrid:
    def test_serial_grid_runs(self):
        results = run_experiment_grid(make_grid(["tab05"], seeds=[0]))
        assert len(results) == 1
        assert results[0].ok
        assert results[0].result.rows

    def test_parallel_matches_serial(self):
        cells = make_grid(["tab05", "fig06"], seeds=[0])
        serial = run_experiment_grid(cells, jobs=None)
        parallel = run_experiment_grid(cells, jobs=2)
        assert [r.cell for r in serial] == [r.cell for r in parallel]
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.result.rows == p.result.rows

    def test_failures_are_captured_per_cell(self):
        cells = [GridCell(name="nope"), GridCell(name="tab05")]
        results = run_experiment_grid(cells)
        assert not results[0].ok and "KeyError" in results[0].error
        assert results[0].traceback and "KeyError" in results[0].traceback
        assert results[1].ok
        summary = GridSummary(results=results)
        assert summary.num_ok == 1 and summary.num_failed == 1
        assert "FAILED" in summary.report()

    def test_report_aligns_labels_and_shows_attempts(self):
        cells = split_heavy_cells([GridCell(name="fig06")])[:2] \
            + [GridCell(name="tab05")]
        results = run_experiment_grid(cells)
        report = GridSummary(results=results).report()
        lines = report.splitlines()
        # every cell line pads its label to the longest label's width
        width = max(len(c.label()) for c in cells)
        for line in lines[:-1]:
            assert line.index(" rows=") > width
            assert "attempts=1" in line
        assert lines[-1].startswith("-- 3/3 cells ok")


class TestRunnerCLI:
    def test_grid_mode_via_cli(self, capsys):
        assert runner_main(["tab05", "--seeds", "0,1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells ok" in out
        assert "2 workers" in out

    def test_seed_range_spec(self, capsys):
        assert runner_main(["tab05", "--seeds", "0:2"]) == 0
        assert "3/3 cells ok" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        assert runner_main(["fig99"]) == 2

    def test_jobs_split_axis_scenarios_into_family_cells(self, capsys):
        assert runner_main(["fig07", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for family in ("SF", "SF-JF", "DF", "HX3"):
            assert f"topo={family}]" in out
        assert "4/4 cells ok" in out

    @pytest.mark.parametrize("flag", ["--split", "--no-split"])
    def test_split_flags_are_gone(self, flag, capsys):
        """Splitting follows ``--jobs``; a script still passing the old flags
        fails loudly instead of running a differently shaped grid."""
        with pytest.raises(SystemExit) as exit_info:
            runner_main(["fig07", "--jobs", "2", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_single_experiment_still_prints_report(self, capsys):
        assert runner_main(["tab05", "--scale", "tiny"]) == 0
        assert "reproduces" in capsys.readouterr().out
