"""Tests for the fault-tolerant grid executor (``repro.experiments.resilient``)."""

import hashlib
import json
import multiprocessing
import os
import time

import pytest

from repro.experiments import resilient
from repro.experiments.common import ExperimentResult
from repro.experiments.grid import (
    GridCell,
    GridSummary,
    combine_cell_results,
    make_grid,
    run_experiment_grid,
    split_heavy_cells,
)
from repro.experiments.resilient import (
    DEFAULT_CELL_TIMEOUTS,
    CellJournal,
    ChaosSpec,
    cell_fingerprint,
    resolve_timeout,
    run_resilient_grid,
)
from repro.experiments.runner import main as runner_main


def _cells():
    """The standard mixed grid: split per-topology cells plus an unsplit cell."""
    return split_heavy_cells(make_grid(["fig06", "tab05"], seeds=[0]))


@pytest.fixture(scope="module")
def clean_results():
    """Uninterrupted serial reference run of the standard grid."""
    results = run_experiment_grid(_cells(), jobs=None)
    assert all(r.ok for r in results)
    return results


#: Tests that monkeypatch ``run_experiment`` reach the workers only through fork.
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="workers inherit the monkeypatch only under fork")


def _stub(name, **meta):
    """A tiny stand-in experiment result."""
    return ExperimentResult(name=name, description="stub", paper_reference="-",
                            rows=[{"x": 1}], meta=meta)


def _line_checksum(record):
    """The journal-line checksum, restated from the format's definition."""
    body = {key: value for key, value in record.items() if key != "sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _assert_combined_equal(expected, actual):
    """Combined tables bit-identical: rows, notes and metadata."""
    want, got = combine_cell_results(expected), combine_cell_results(actual)
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert a.name == b.name
        assert a.rows == b.rows
        assert a.notes == b.notes
        assert a.meta == b.meta


class TestFingerprint:
    def test_stable_and_content_keyed(self):
        cell = GridCell(name="fig06", scale="tiny", seed=3, topologies=("SF",))
        assert cell_fingerprint(cell) == cell_fingerprint(
            GridCell(name="fig06", scale="tiny", seed=3, topologies=("SF",)))

    def test_journals_of_untyped_cells_still_resume(self):
        """Digests pinned from cells that still carried an open ``kwargs`` bag.

        The split cell was then written ``kwargs=(("topologies", ("SF",)),)``;
        a journal written by that layout resumes only if the keys are unchanged.
        """
        assert cell_fingerprint(GridCell("fig07", "tiny", 0)) \
            == "64b5afe6fb86a51f0c3ed148b0ac6ff1"
        assert cell_fingerprint(GridCell("fig07", "small", 3, topologies=("SF",))) \
            == "13511ccb67d7baa11a7636e38f83b541"

    def test_every_axis_changes_the_key(self):
        base = GridCell(name="fig06", scale="tiny", seed=0)
        keys = {cell_fingerprint(base),
                cell_fingerprint(GridCell(name="tab05", scale="tiny", seed=0)),
                cell_fingerprint(GridCell(name="fig06", scale="small", seed=0)),
                cell_fingerprint(GridCell(name="fig06", scale="tiny", seed=1)),
                cell_fingerprint(GridCell(name="fig06", scale="tiny", seed=0,
                                          topologies=("SF",)))}
        assert len(keys) == 5


class TestTimeouts:
    def test_scale_aware_defaults(self):
        for scale, limit in DEFAULT_CELL_TIMEOUTS.items():
            assert resolve_timeout(GridCell(name="x", scale=scale), None) == limit

    def test_uniform_and_disabled(self):
        cell = GridCell(name="x", scale="tiny")
        assert resolve_timeout(cell, 12.5) == 12.5
        assert resolve_timeout(cell, 0) == float("inf")
        assert resolve_timeout(cell, float("inf")) == float("inf")

    @pytest.mark.parametrize("jobs", [None, 2])
    @pytest.mark.parametrize("timeout", [-1.0, float("nan")])
    def test_negative_or_nan_timeout_rejected(self, tmp_path, timeout, jobs):
        """A negative limit would disable deadlines, a NaN one busy-poll."""
        path = tmp_path / "j.jsonl"
        with pytest.raises(ValueError, match="timeout must be") as info:
            run_resilient_grid([GridCell(name="tab05"), GridCell(name="tab05", seed=1)],
                               jobs=jobs, timeout=timeout, journal=str(path))
        assert "\n" not in str(info.value)
        assert not path.exists()  # refused before any cell ran


class TestJournal:
    def test_round_trip_bit_identical(self, tmp_path, clean_results):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        for r in clean_results:
            journal.record(r.cell, r)
        journal.close()
        reloaded = CellJournal(path)
        assert len(reloaded) == len(clean_results)
        for r in clean_results:
            cached = reloaded.lookup(r.cell)
            assert cached is not None and cached.outcome == "journal"
            assert cached.result.rows == r.result.rows
            assert cached.result.notes == r.result.notes
            assert cached.result.meta == r.result.meta

    def test_lines_are_atomic_json(self, tmp_path, clean_results):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        journal.record(clean_results[0].cell, clean_results[0])
        journal.close()
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert json.loads(raw.decode())["fingerprint"] == \
            cell_fingerprint(clean_results[0].cell)

    def test_truncated_tail_tolerated(self, tmp_path, clean_results):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        for r in clean_results[:2]:
            journal.record(r.cell, r)
        journal.close()
        # simulate a crash mid-write: chop the last line in half
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw.splitlines(True)[-1]) // 2 - 1])
        reloaded = CellJournal(path)
        assert reloaded.corrupt_lines == 1
        assert reloaded.lookup(clean_results[0].cell) is not None
        assert reloaded.lookup(clean_results[1].cell) is None  # re-runs on resume

    def test_duplicate_cell_last_wins(self, tmp_path, clean_results):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        journal.record(clean_results[0].cell, clean_results[0])
        journal.record(clean_results[0].cell, clean_results[0])
        journal.close()
        assert len(path.read_bytes().splitlines()) == 2  # append-only
        reloaded = CellJournal(path)
        assert len(reloaded) == 1
        assert reloaded.lookup(clean_results[0].cell).result.rows \
            == clean_results[0].result.rows

    def test_lines_carry_version_and_checksum(self, tmp_path, clean_results):
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        journal.record(clean_results[0].cell, clean_results[0])
        journal.close()
        record = json.loads(path.read_bytes())
        assert record["v"] == 1
        assert record["sha256"] == _line_checksum(record)

    @pytest.mark.parametrize("tamper", ["changed_value", "wrong_version", "no_checksum"])
    def test_tampered_line_refused_and_cell_reruns(self, tmp_path, clean_results, tamper):
        tab05 = clean_results[-1]
        assert tab05.cell.name == "tab05" and tab05.result.rows[0]["Nr"] == 50
        path = tmp_path / "j.jsonl"
        journal = CellJournal(path)
        journal.record(tab05.cell, tab05)
        journal.close()
        record = json.loads(path.read_bytes())
        if tamper == "changed_value":
            record["result"]["rows"][0]["Nr"] = 51  # the checksum is now stale
        elif tamper == "wrong_version":
            record["v"] = 2
            record["sha256"] = _line_checksum(record)
        else:
            del record["sha256"]
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
        reloaded = CellJournal(path)
        assert reloaded.corrupt_lines == 1
        assert reloaded.lookup(tab05.cell) is None
        rerun = run_experiment_grid([tab05.cell], journal=str(path), resume=True)
        assert rerun[0].outcome == "ok"
        assert rerun[0].result.rows == tab05.result.rows

    def test_failed_cells_are_not_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        results = run_experiment_grid([GridCell(name="nope")], journal=str(path))
        assert not results[0].ok
        assert not path.exists() or not path.read_bytes()


class TestInCellErrors:
    @pytest.mark.parametrize("jobs", [None, pytest.param(2, marks=needs_fork)])
    @pytest.mark.parametrize("error", [ConnectionError, TimeoutError])
    def test_os_level_errors_fail_once(self, monkeypatch, error, jobs):
        """An exception raised inside a cell fails it once, in either mode: cells
        open no file or socket, so these errors would repeat like any other."""
        def fails_at_seed_1(name, scale, seed, **kwargs):
            if seed == 1:
                raise error("resource blip")
            return _stub(name)

        monkeypatch.setattr(resilient, "run_experiment", fails_at_seed_1)
        cells = [GridCell(name="tab05", seed=0), GridCell(name="tab05", seed=1)]
        results = run_experiment_grid(cells, jobs=jobs)
        assert results[0].ok and results[0].attempts == 1
        assert results[1].outcome == "failed" and results[1].attempts == 1
        assert error.__name__ in results[1].error
        assert "Traceback (most recent call last)" in results[1].traceback


class TestSerialResilience:
    def test_deterministic_error_fails_fast_with_traceback(self):
        results = run_experiment_grid([GridCell(name="nope")])
        assert results[0].outcome == "failed" and results[0].attempts == 1
        assert "KeyError" in results[0].error
        assert "Traceback (most recent call last)" in results[0].traceback

    def test_process_killing_chaos_rejected_in_serial(self):
        with pytest.raises(ValueError, match="worker pool"):
            run_experiment_grid([GridCell(name="tab05"), GridCell(name="fig06")],
                                chaos=ChaosSpec(kill=("tab05",)))

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            run_experiment_grid([GridCell(name="tab05")], resume=True)


class TestPooledResilience:
    def test_worker_kill_recovers_bit_identical(self, clean_results):
        cells = _cells()
        chaos = ChaosSpec(kill=(cells[0].label(),))
        results = run_experiment_grid(cells, jobs=2, chaos=chaos)
        assert all(r.ok for r in results), \
            [(r.cell.label(), r.error) for r in results if not r.ok]
        assert results[0].attempts > 1
        for want, got in zip(clean_results, results):
            assert want.result.rows == got.result.rows

    def test_poisoned_cell_quarantined_others_complete(self, monkeypatch):
        monkeypatch.setattr(resilient, "CRASH_RETRIES", 1)
        cells = _cells()
        chaos = ChaosSpec(poison=(cells[1].label(),))
        results = run_experiment_grid(cells, jobs=2, chaos=chaos)
        assert results[1].outcome == "poisoned" and not results[1].ok
        assert results[1].attempts == 2
        assert "quarantined" in results[1].error
        others = [r for i, r in enumerate(results) if i != 1]
        assert all(r.ok for r in others)
        report = GridSummary(results=results).report()
        assert "POISONED" in report and "1 poisoned" in report

    def test_hang_times_out_and_retries(self):
        cells = _cells()
        chaos = ChaosSpec(hang=(cells[2].label(),), hang_seconds=60.0)
        results = run_experiment_grid(cells, jobs=2, chaos=chaos, timeout=5.0)
        assert all(r.ok for r in results)
        assert results[2].attempts == 2

    def test_hang_exhausts_timeout_budget(self, monkeypatch):
        monkeypatch.setattr(resilient, "TIMEOUT_RETRIES", 0)
        cells = _cells()[:3]
        chaos = ChaosSpec(hang=(cells[1].label(),), hang_seconds=60.0)
        results = run_experiment_grid(cells, jobs=2, chaos=chaos, timeout=4.0)
        assert results[1].outcome == "timeout" and not results[1].ok
        assert "Timeout" in results[1].error
        assert results[0].ok and results[2].ok

    def test_crash_reruns_only_its_own_cell(self, clean_results):
        cells = _cells()
        chaos = ChaosSpec(kill=(cells[0].label(),))
        results = run_experiment_grid(cells, jobs=2, chaos=chaos)
        assert [r.attempts for r in results] == [2, 1, 1, 1, 1, 1]
        for want, got in zip(clean_results, results):
            assert got.outcome == "ok" and want.result.rows == got.result.rows

    @needs_fork
    def test_timeout_kills_only_the_hung_cells_worker(self, monkeypatch):
        real = resilient.run_experiment

        def slow_at_small(name, scale, seed, **kwargs):
            if scale == "small":
                time.sleep(3.0)
                return _stub(name)
            return real(name, scale=scale, seed=seed, **kwargs)

        monkeypatch.setattr(resilient, "run_experiment", slow_at_small)
        monkeypatch.setitem(DEFAULT_CELL_TIMEOUTS, "tiny", 1.5)
        hung = GridCell(name="tab05", scale="tiny")
        slow = GridCell(name="tab05", scale="small")  # keeps the 1,800 s default limit
        results = run_experiment_grid(
            [hung, slow], jobs=2,
            chaos=ChaosSpec(hang=(hung.label(),), hang_seconds=60.0))
        assert [r.outcome for r in results] == ["ok", "ok"]
        assert [r.attempts for r in results] == [2, 1]

    @needs_fork
    def test_unpicklable_result_fails_its_cell_once(self, monkeypatch):
        real = resilient.run_experiment

        def unpicklable_at_small(name, scale, seed, **kwargs):
            if scale == "small":
                return _stub(name, hook=lambda: None)
            return real(name, scale=scale, seed=seed, **kwargs)

        monkeypatch.setattr(resilient, "run_experiment", unpicklable_at_small)
        cells = [GridCell(name="tab05", scale="small"), GridCell(name="tab05")]
        results = run_experiment_grid(cells, jobs=2)
        assert results[0].outcome == "failed" and results[0].attempts == 1
        assert "pickle" in results[0].error.lower()
        assert results[1].ok and results[1].attempts == 1


class TestResumeEqualsUninterrupted:
    """The tentpole property: kill the pool mid-sweep, resume, get identical tables."""

    def test_resume_after_crash_is_bit_identical(self, tmp_path, clean_results, monkeypatch):
        cells = _cells()
        journal = str(tmp_path / "grid.jsonl")
        # pass 1: two cells (one split, one unsplit) can never complete — they
        # SIGKILL their worker on every attempt until quarantined
        chaos = ChaosSpec(poison=(cells[2].label(), cells[-1].label()))
        monkeypatch.setattr(resilient, "CRASH_RETRIES", 0)
        first = run_experiment_grid(cells, jobs=2, chaos=chaos, journal=journal)
        assert first[2].outcome == "poisoned"
        assert first[-1].outcome == "poisoned"
        completed = [r for r in first if r.ok]
        assert 0 < len(completed) < len(cells)  # a genuinely partial sweep
        # pass 2: resume without chaos completes only the missing cells
        second = run_experiment_grid(cells, jobs=2, journal=journal, resume=True)
        assert all(r.ok for r in second)
        resumed = [r for r in second if r.outcome == "journal"]
        assert len(resumed) == len(completed)
        _assert_combined_equal(clean_results, second)

    def test_resume_with_truncated_journal_tail(self, tmp_path, clean_results):
        cells = _cells()
        journal = str(tmp_path / "grid.jsonl")
        first = run_experiment_grid(cells, jobs=None, journal=journal)
        assert all(r.ok for r in first)
        raw = open(journal, "rb").read()
        with open(journal, "wb") as fh:  # crash-truncated final line
            fh.write(raw[:-20])
        second = run_experiment_grid(cells, jobs=2, journal=journal, resume=True)
        assert all(r.ok for r in second)
        assert sum(1 for r in second if r.outcome == "journal") == len(cells) - 1
        _assert_combined_equal(clean_results, second)
        # the re-run cell's line starts after the torn one instead of gluing onto it
        reloaded = CellJournal(journal)
        assert reloaded.corrupt_lines == 1 and len(reloaded) == len(cells)
        third = run_experiment_grid(cells, jobs=None, journal=journal, resume=True)
        assert all(r.outcome == "journal" for r in third)
        _assert_combined_equal(clean_results, third)

    def test_resume_with_duplicate_journal_lines(self, tmp_path, clean_results):
        cells = _cells()
        journal = str(tmp_path / "grid.jsonl")
        first = run_experiment_grid(cells, jobs=None, journal=journal)
        assert all(r.ok for r in first)
        lines = open(journal, "rb").readlines()
        with open(journal, "ab") as fh:  # duplicate the first cell's record
            fh.write(lines[0])
        second = run_experiment_grid(cells, jobs=None, journal=journal, resume=True)
        assert all(r.outcome == "journal" for r in second)
        _assert_combined_equal(clean_results, second)


class TestRunnerFlags:
    def test_journal_then_resume_cli(self, tmp_path, capsys):
        journal = str(tmp_path / "grid.jsonl")
        assert runner_main(["tab05,fig10", "--journal", journal]) == 0
        capsys.readouterr()
        assert os.path.getsize(journal) > 0
        assert runner_main(["tab05,fig10", "--journal", journal, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 from journal" in out
        assert "2/2 cells ok" in out

    def test_resume_without_journal_rejected(self, capsys):
        assert runner_main(["tab05", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_verbose_errors_prints_traceback(self, capsys):
        assert runner_main(["tab05", "--seeds", "0", "--verbose-errors"]) == 0
        out = capsys.readouterr().out
        assert "traceback" not in out  # healthy cells stay quiet

    def test_verbose_errors_surfaces_failed_cell(self, capsys, monkeypatch):
        import repro.experiments.grid as grid_mod

        real = grid_mod.run_experiment_grid

        def with_failure(cells, jobs=None, **kwargs):
            bad = [GridCell(name="nope")] + list(cells)
            return real(bad, jobs=jobs, **kwargs)

        monkeypatch.setattr("repro.experiments.runner.run_experiment_grid",
                            with_failure)
        assert runner_main(["tab05", "--seeds", "0", "--verbose-errors"]) == 1
        out = capsys.readouterr().out
        assert "-- traceback for nope" in out
        assert "Traceback (most recent call last)" in out

    def test_cell_timeout_zero_accepted(self, capsys):
        assert runner_main(["tab05", "--seeds", "0", "--cell-timeout", "0"]) == 0
        assert "1/1 cells ok" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_negative_or_nan_cell_timeout_rejected(self, value, capsys):
        assert runner_main(["tab05", "--seeds", "0", "--cell-timeout", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--cell-timeout" in captured.err

    def test_retries_flag_is_gone(self, capsys):
        """A cell re-runs only when it loses its worker; no flag sets a retry count."""
        with pytest.raises(SystemExit) as exit_info:
            runner_main(["tab05", "--seeds", "0", "--retries", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
