"""One benchmark process: set a workload up, measure it, check its outputs.

``run.py`` starts this script in a fresh process per sample and reads the one
JSON line it prints.  ``--mode setup`` stops after set-up and reports the
set-up time; ``--mode measure`` also runs and checks the measured work;
``--mode trace`` does the same with every layer's public callables wrapped
(``tracer.py``, ``layers.py``) and reports the per-layer metrics.
``--record`` stores the run's outputs as the committed expectation of its
seed (``expected/``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import checks
import layers
import tracer as tracing
import workloads

OUT_DIR = workloads.REPO / ".perfbench_out"


def _import_program() -> None:
    """Import every program module, so the tracer can rebind every import site."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _percentiles(samples) -> dict:
    p50, p99 = np.percentile(np.asarray(samples) * 1e3, [50, 99])
    return {"p50_ms": float(p50), "p99_ms": float(p99), "count": len(samples)}


def _versions() -> dict:
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def _layer_metrics(tracer, outcome, trace_wall: float, untraced_wall: float) -> dict:
    from repro.kernels import cache

    for meta in outcome.stream_metas:
        layers.count_engine_meta(tracer, meta)
    traced_wall = sum(outcome.unit_walls)
    values = layers.layer_metrics(
        tracing.per_name(tracer), tracer.counters, cache.global_cache().stats(),
        outcome.stream_summary, outcome.grid, trace_wall, tracing.root_time(tracer),
        traced_wall / untraced_wall - 1 if untraced_wall > 0 else 0.0, len(tracer))
    covered = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS) + values["other.self_s"]
    if abs(covered - trace_wall) > 1e-6 * max(trace_wall, 1.0):
        raise RuntimeError(f"layer self times sum to {covered}, traced wall is {trace_wall}")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--size", default="full", choices=("full", "test"))
    parser.add_argument("--mode", default="measure", choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() taken just before this process started")
    parser.add_argument("--untraced-wall", type=float, default=0.0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        _import_program()
        tracer = tracing.Tracer()
        tracer.install(layers.SPECS)
    trace_start = time.perf_counter()
    clock = time.monotonic
    state = workload.setup(args.seed, args.size, clock, args.units)
    result = {"setup_s": clock() - args.spawned - state["gen_s"], "gen_s": state["gen_s"]}
    if args.mode != "setup":
        outcome = workload.measure(state, tracer, args.units, clock)
        trace_wall = time.perf_counter() - trace_start
        result.update(unit_walls=outcome.unit_walls, work=outcome.work,
                      attempted=outcome.attempted, failed=outcome.failed,
                      mismatches=outcome.mismatches[:20], samples=_percentiles(outcome.samples),
                      versions=_versions())
        if args.mode == "trace":
            result["layers"] = _layer_metrics(tracer, outcome, trace_wall, args.untraced_wall)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        if args.record:
            if outcome.failed:
                raise SystemExit(f"not recording: {outcome.mismatches[:3]}")
            checks.store_expected(workloads.EXPECTED_NAME[args.workload], args.seed,
                                  outcome.expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
