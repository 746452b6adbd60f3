#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper_serial --seed 0 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics:
the set-up time is the median of five fresh processes that each set the
workload up (one of them then runs the measured work).  ``--trace 1`` runs
the workload in its own process with every layer wrapped and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it holds diagnostics (sample counts, input generation time, nproc,
versions, hypervisor steal time, a fixed-loop speed probe before and after
the run).  See ``perfbench/README.md``.

Only the standard library is used here; the measured work runs in
``worker.py`` subprocesses.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT_DIR = REPO / ".perfbench_out"
WALLS = OUT_DIR / "untraced_walls.json"

WORKLOADS = ("paper_serial", "stream_small")
#: Set-up samples per untraced run (fresh processes; the last one also measures).
SETUP_SAMPLES = 5
#: Nominal seconds of one measured unit per workload: a run does
#: max(1, seconds // nominal) units, a count fixed by --seconds alone.
UNIT_SECONDS = {"paper_serial": 50.0, "stream_small": 10.0}
#: Worker environment: one BLAS/OpenMP thread (the load comes from one
#: thread, so a run does not race the host's scheduler for both vCPUs) and a
#: fixed string hash seed (the same set and dict orders in every run).
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: Hard limit on the whole run.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _steal_ticks() -> tuple:
    """(steal, total) CPU ticks from /proc/stat, or (0, 0) where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _speed_probe_ms() -> float:
    """Milliseconds of a fixed interpreter loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return (time.perf_counter() - start) * 1e3


def _units(args) -> int:
    return max(1, int(args.seconds // UNIT_SECONDS[args.workload]))


def _worker(args, mode: str, deadline: float, untraced_wall: float = 0.0) -> dict:
    """Run worker.py once in its own process group; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(WORKER_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--units", str(_units(args)), "--size", args.size,
           "--mode", mode, "--untraced-wall", repr(untraced_wall)]
    if args.record:
        cmd.append("--record")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=REPO, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} run of {args.workload} exceeded the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {args.workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _wall_key(args) -> str:
    return f"{args.workload}:{args.size}:{_units(args)}"


def _untraced_walls() -> dict:
    try:
        return json.loads(WALLS.read_text())
    except (OSError, ValueError):
        return {}


def _remember_wall(args, wall: float) -> None:
    walls = _untraced_walls()
    walls.setdefault(_wall_key(args), []).append(wall)
    OUT_DIR.mkdir(exist_ok=True)
    WALLS.write_text(json.dumps(walls))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    """Measure one workload; return the result object (and print diagnostics)."""
    deadline = time.monotonic() + DEADLINE_S
    if not (REPO / "src" / "repro").is_dir():
        raise BenchError(f"no program sources under {REPO / 'src'}; run from a full checkout")
    compileall.compile_dir(str(REPO / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    steal0, total0 = _steal_ticks()
    probe0 = _speed_probe_ms()
    if args.trace:
        walls = _untraced_walls().get(_wall_key(args))
        if not walls:
            walls = [sum(_worker(args, "measure", deadline)["unit_walls"])]
            _remember_wall(args, walls[0])
        main = _worker(args, "trace", deadline, statistics.median(walls))
        metrics = main["layers"]
    else:
        setups = [_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = _worker(args, "measure", deadline)
        setups.append(main["setup_s"])
        wall = sum(main["unit_walls"])
        _remember_wall(args, wall)
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
            "events_per_s": _metric(main["work"] / wall, "1/s"),
            "push_ms_p50": _metric(main["samples"]["p50_ms"], "ms"),
            "push_ms_p99": _metric(main["samples"]["p99_ms"], "ms"),
        }
    steal1, total1 = _steal_ticks()
    hz = os.sysconf("SC_CLK_TCK")
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": main["samples"]["count"], "gen_s": main["gen_s"],
        "fail_frac": main["failed"] / main["attempted"], "mismatches": main["mismatches"],
        "nproc": len(os.sched_getaffinity(0)), **main["versions"],
        "steal_s": (steal1 - steal0) / hz,
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
        "probe_ms": [probe0, _speed_probe_ms()],
    }
    print("diagnostics " + json.dumps(diagnostics))
    return {"correct": main["failed"] == 0, "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "test"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as its expectation (expected/)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
