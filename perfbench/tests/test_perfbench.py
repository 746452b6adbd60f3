"""Self-tests of the benchmark: span arithmetic, output checks, workload drivers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.  The workload drivers run at their reduced ``--size test``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _synthetic(spans):
    """A tracer holding ``spans`` = [(name, start, end, parent)]."""
    t = tracing.Tracer()
    for name, start, end, parent in spans:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.request.append(-1)
    return t


class TestSpanArithmetic:
    # root [0,10] -> a [1,3], b [4,8] -> a [5,6]; second root a [12,13]
    SPANS = [("root", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0),
             ("a", 5.0, 6.0, 2), ("a", 12.0, 13.0, -1)]

    def test_self_time_subtracts_children(self):
        t = _synthetic(self.SPANS)
        spans = t.arrays()
        own = tracing.self_times(spans["start"], spans["end"], spans["parent"])
        assert own.tolist() == [4.0, 2.0, 3.0, 1.0, 1.0]

    def test_per_name_totals_and_outer_calls(self):
        stats = tracing.per_name(_synthetic(self.SPANS))
        assert stats["a"] == {"calls": 3, "self_s": 4.0, "total_s": 4.0, "outer_calls": 3}
        assert stats["b"]["self_s"] == 3.0 and stats["b"]["total_s"] == 4.0
        assert stats["root"]["self_s"] == 4.0

    def test_self_times_add_up_to_root_time(self):
        t = _synthetic(self.SPANS)
        assert sum(v["self_s"] for v in tracing.per_name(t).values()) == \
            tracing.root_time(t) == 11.0

    def test_nested_outer_calls_count_once(self):
        stats = tracing.per_name(_synthetic([("x", 0.0, 4.0, -1), ("x", 1.0, 2.0, 0)]))
        assert stats["x"]["calls"] == 2 and stats["x"]["outer_calls"] == 1

    def test_wrapped_calls_nest_and_carry_the_request(self):
        t = tracing.Tracer()

        def inner(x):
            return x + 1

        inner_w = t.wrap(inner, "l.inner")
        outer_w = t.wrap(lambda x: inner_w(inner_w(x)), "l.outer")
        t.current_request = 7
        assert outer_w(1) == 3
        spans = t.arrays()
        assert [t.names[i] for i in spans["name"]] == ["l.outer", "l.inner", "l.inner"]
        assert spans["parent"].tolist() == [-1, 0, 0]
        assert spans["request"].tolist() == [7, 7, 7]
        stats = tracing.per_name(t)
        assert sum(v["self_s"] for v in stats.values()) == pytest.approx(tracing.root_time(t))

    def test_generator_resumes_are_spans(self):
        t = tracing.Tracer()

        def gen(n):
            yield from range(n)

        assert list(t.wrap(gen, "l.gen")(3)) == [0, 1, 2]
        assert len(t) == 4          # three values plus the exhausting resume


class TestInstall:
    def test_rebinds_every_import_site_and_restores(self):
        import repro.diversity.disjoint_paths as user
        import repro.kernels as package
        import repro.kernels.disjoint as home
        from repro.sim.engine import CandidateBank

        original, entry = home.batch_disjoint_paths, CandidateBank.entry
        t = tracing.Tracer()
        specs = [("kernels.disjoint", ["repro.kernels.disjoint:batch_disjoint_paths"],
                  None, None),
                 ("engine.bank_entry", ["repro.sim.engine:CandidateBank.entry"], None, None)]
        try:
            assert t.install(specs) >= 4
            assert user.batch_disjoint_paths is home.batch_disjoint_paths \
                is package.batch_disjoint_paths
            assert home.batch_disjoint_paths is not original
            assert CandidateBank.entry is not entry
        finally:
            t.uninstall()
        assert user.batch_disjoint_paths is original is package.batch_disjoint_paths
        assert CandidateBank.entry is entry

    def test_every_spec_target_resolves_to_callables(self):
        for name, targets, _, _ in layers.SPECS:
            assert name.split(".")[0] in layers.LAYERS, name
            for target in targets:
                found = tracing._resolve(target)
                assert found, target
                for _, _, value in found:
                    fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) \
                        else value
                    assert callable(fn), target


class TestChecks:
    @staticmethod
    def _records():
        from repro.sim.metrics import FlowRecord

        return [FlowRecord(flow_id=i, source=i, destination=i + 1, size_bytes=1e5,
                           start_time=0.0, completion_time=1e-3 * (i + 1), path_hops=2.0,
                           num_path_switches=i % 3, congestion_events=i % 2)
                for i in range(50)]

    def test_identical_outputs_pass(self):
        digest = checks.record_digest(self._records())
        assert checks.compare(json.loads(json.dumps(digest)), digest) == []

    @pytest.mark.parametrize("perturb", [
        lambda d: d.__setitem__("switches", d["switches"] + 1),
        lambda d: d.__setitem__("ids_sha", "0" * 64),
        lambda d: d["completion_sample"][3].__setitem__(1, d["completion_sample"][3][1] * 1.0001),
        lambda d: d.__setitem__("completion_sum", d["completion_sum"] * (1 - 1e-8)),
        lambda d: d.__setitem__("flows", 49),
    ])
    def test_perturbed_expectation_is_rejected(self, perturb):
        digest = checks.record_digest(self._records())
        expected = json.loads(json.dumps(digest))
        perturb(expected)
        assert checks.compare(expected, digest)

    def test_float_noise_below_tolerance_passes(self):
        digest = checks.record_digest(self._records())
        expected = json.loads(json.dumps(digest))
        expected["completion_sum"] *= 1 + 1e-12
        assert checks.compare(expected, digest) == []

    def test_invariants_catch_a_missing_or_impossible_flow(self):
        from repro.traffic.flows import Flow

        records = self._records()
        flows = [Flow(start_time=0.0, source=r.source, destination=r.destination,
                      size_bytes=r.size_bytes, flow_id=r.flow_id) for r in records]
        assert checks.flow_invariants(records, flows, 1.25e9) == []
        assert checks.flow_invariants(records[1:], flows, 1.25e9)
        assert checks.flow_invariants(records, flows, 1e6)    # faster than line rate

    def test_row_invariants_need_rows_and_base_columns(self):
        golden = json.loads(workloads.GOLDEN.read_text())["fig06"]
        extra = [dict(row, **{"lmin=9": 1}) for row in golden]
        assert checks.row_invariants("fig06", extra, golden) == []
        assert checks.row_invariants("fig06", [], golden)
        lacking = [{k: v for k, v in row.items() if k != "topology"} for row in golden]
        assert checks.row_invariants("fig06", lacking, golden)

    def test_wrong_expectation_fails_operations(self, monkeypatch):
        w = workloads.WORKLOADS["stream_small"]
        state = w.setup(0, "test", time.monotonic, 2)
        good = w.measure(state, None, 2, time.monotonic)
        pushes = good.attempted // 2
        assert good.failed == 0 and good.attempted == 2 * pushes > 0
        state["size"] = "full"        # compare against the (patched) committed table
        table = {"0": json.loads(json.dumps(good.expected))}
        monkeypatch.setattr(checks, "load_expected", lambda name: table)
        assert w.measure(state, None, 2, time.monotonic).failed == 0
        table["0"][1]["summary"]["events"] += 1
        bad = w.measure(state, None, 2, time.monotonic)
        assert bad.failed == pushes and bad.attempted == 2 * pushes
        assert any("stream1/summary/events" in m for m in bad.mismatches)


class TestBenchmarkSpec:
    def test_per_layer_block_matches_layers(self):
        assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b}
                                     for n, u, b in layers.PER_LAYER]

    def test_workloads_match_drivers(self):
        import run

        names = [w["name"] for w in SPEC["workloads"]]
        assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)

    def test_scenarios_match_registry(self):
        from repro.experiments.common import registry

        assert sorted(registry()) == list(layers.SCENARIOS)


def _run(args, cwd=REPO):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_driver_emits_every_declared_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "test"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "stream_small", "--seed", "0", "--seconds", "10",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
