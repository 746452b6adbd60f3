#!/usr/bin/env python3
"""Consolidate the simulation and SPAIN benchmarks into the committed ``BENCH_flowsim.json``.

Runs the benchmark modules in ``BENCH_FILES`` under pytest-benchmark once per
requested scale, parses the machine-readable output, and folds the numbers that
track the performance trajectory across PRs into one committed JSON file:

* ``fig02_permutation`` — scalar reference vs vectorized engine event rates on the
  fig02-style randomly mapped permutation workload;
* ``incast_staggered`` — ``allocator="full"`` vs ``allocator="incremental"`` event
  rates on the staggered multi-tenant incast workload (the dirty-component
  refiltering benchmark; see ``repro.sim.allocstate``);
* ``incast_dense`` — ``allocator="incremental"`` vs ``allocator="bottleneck"``
  event rates on the dense all-at-once shared-sender incast, where the one-
  component incidence defeats component refiltering but saturation-coupled
  refills stay local (see ``repro.sim.bottleneck``);
* ``packet_incast`` — scalar reference vs vectorized packet engine
  (:mod:`repro.sim.packetengine`) event rates on the deep-incast workload;
* ``stream_sustained`` — the streaming service layer (:mod:`repro.sim.stream`) on
  an open-ended Poisson arrival stream: sustained events/sec plus the bounded-
  memory evidence (peak active flows and slot peak versus total arrivals; see
  ``docs/streaming.md``);
* ``grid_executor`` — plain ``pool.map`` vs the fault-tolerant grid executor
  (:mod:`repro.experiments.resilient`) on a healthy pooled sweep; the derived
  ``resilient_overhead`` ratio must stay ≤ 1.15x (asserted in CI by
  ``benchmarks/test_bench_grid.py::test_grid_resilient_overhead``; see
  ``docs/resilience.md``);
* ``engine_replay`` — the flow engine's two per-event kernels replayed on their
  own, over inputs captured from one fatpaths stream and one fig17 cell (see
  ``benchmarks/test_bench_kernels.py``): microseconds per progressive fill
  (:func:`repro.sim.fairshare.leveled_fill`) and per adaptive selector draw
  (``FlowletSelector.next_path_batch``), with the number of calls replayed;
* ``spain_build`` — the scalar SPAIN spec
  (:func:`repro.kernels.reference.spain_layers_python`) vs the batched
  :func:`repro.routing.spain.build_spain_layers` on Figure 9's SPAIN
  configuration over the benchmark Slim Fly, plus the wall time of the whole
  Figure 9 cell (``fig09_cell_seconds``) beside it.

Existing scales in the output file are preserved, so partial regenerations (e.g.
``--scales small`` only) never drop history, and ``--files`` restricts a
regeneration to a subset of the benchmark modules (the other sections of that
scale are kept).  Regenerate deliberately — like the golden rows — and commit the
diff together with the change that explains it:

Run:  PYTHONPATH=src python tools/bench_report.py --scales small medium
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO / "BENCH_flowsim.json"
BENCH_FILES = ("benchmarks/test_bench_flowsim.py", "benchmarks/test_bench_packetsim.py",
               "benchmarks/test_bench_stream.py", "benchmarks/test_bench_grid.py",
               "benchmarks/test_bench_kernels.py",
               "benchmarks/test_bench_scenarios.py::test_bench_scenario[fig09]")

#: benchmark test name -> (report section, role key)
BENCHMARKS = {
    "test_bench_flowsim_reference_scalar": ("fig02_permutation", "reference"),
    "test_bench_flowsim_vectorized_engine": ("fig02_permutation", "engine"),
    "test_bench_alloc_full": ("incast_staggered", "full"),
    "test_bench_alloc_incremental": ("incast_staggered", "incremental"),
    "test_bench_alloc_incremental_dense": ("incast_dense", "incremental"),
    "test_bench_alloc_bottleneck_dense": ("incast_dense", "bottleneck"),
    "test_bench_packetsim_reference_scalar": ("packet_incast", "reference"),
    "test_bench_packetsim_vectorized_engine": ("packet_incast", "engine"),
    "test_bench_stream_sustained": ("stream_sustained", "stream"),
    "test_bench_grid_plain_pool": ("grid_executor", "plain"),
    "test_bench_grid_resilient_pool": ("grid_executor", "resilient"),
    "test_bench_spain_build_reference_scalar": ("spain_build", "reference"),
    "test_bench_spain_build_batched": ("spain_build", "batched"),
    "test_bench_scenario[fig09]": ("spain_build", "fig09_cell"),
    "test_bench_fill_replay": ("engine_replay", "fill"),
    "test_bench_draw_replay": ("engine_replay", "draw"),
}

#: extra_info keys copied verbatim into a section (beyond the shared "events").
EXTRA_INFO_KEYS = ("arrivals", "peak_active", "peak_slots")

#: section -> (baseline role, fast role) for the derived speedup.
SPEEDUPS = {
    "fig02_permutation": ("reference", "engine"),
    "incast_staggered": ("full", "incremental"),
    "incast_dense": ("incremental", "bottleneck"),
    "packet_incast": ("reference", "engine"),
    "spain_build": ("reference", "batched"),
}


def run_benchmarks(scale: str, files=BENCH_FILES) -> dict:
    """Run the simulation benchmark modules at ``scale``; return the merged
    pytest-benchmark JSON records."""
    merged = {"benchmarks": []}
    for bench_file in files:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bench.json"
            env = dict(os.environ)
            env["FATPATHS_BENCH_SCALE"] = scale
            env["PYTHONPATH"] = (f"{REPO / 'src'}{os.pathsep}"
                                 + env.get("PYTHONPATH", ""))
            command = [sys.executable, "-m", "pytest", bench_file,
                       "--benchmark-only", "-q", f"--benchmark-json={out}"]
            result = subprocess.run(command, cwd=REPO, env=env)
            if result.returncode != 0:
                raise SystemExit(
                    f"benchmark run {bench_file} failed at scale {scale!r}")
            merged["benchmarks"].extend(json.loads(out.read_text())["benchmarks"])
    return merged


def consolidate(scale: str, bench_json: dict) -> dict:
    """One scale's report entry from a pytest-benchmark JSON document."""
    sections: dict = {}
    for record in bench_json["benchmarks"]:
        mapped = BENCHMARKS.get(record["name"])
        if mapped is None:
            continue
        section, role = mapped
        seconds = float(record["stats"]["mean"])
        entry = sections.setdefault(section, {})
        entry[f"{role}_seconds"] = round(seconds, 4)
        extra = record.get("extra_info", {})
        events = extra.get("events")
        if events is not None:
            entry.setdefault("events", int(events))
            entry[f"{role}_events_per_second"] = round(int(events) / seconds, 1)
        for key in EXTRA_INFO_KEYS:
            if key in extra:
                entry[key] = int(extra[key])
        calls = extra.get("calls")
        if calls:
            # a replay of many captured calls: report the time of one
            entry[f"{role}_calls"] = int(calls)
            entry[f"{role}_us_per_call"] = round(seconds / int(calls) * 1e6, 1)
    for section, (baseline, fast) in SPEEDUPS.items():
        entry = sections.get(section, {})
        base, quick = entry.get(f"{baseline}_seconds"), entry.get(f"{fast}_seconds")
        if base and quick:
            entry[f"{fast}_speedup"] = round(base / quick, 2)
    executor = sections.get("grid_executor", {})
    plain = executor.get("plain_seconds")
    resilient = executor.get("resilient_seconds")
    if plain and resilient:
        # an overhead ratio, not a speedup: >= ~1.0 is expected, <= 1.15 required
        executor["resilient_overhead"] = round(resilient / plain, 3)
    return sections


def main(argv=None) -> int:
    """Regenerate the committed benchmark-trajectory file."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", nargs="+", default=["small"],
                        choices=["tiny", "small", "medium"])
    parser.add_argument("--files", nargs="+", default=list(BENCH_FILES),
                        choices=list(BENCH_FILES),
                        help="restrict the run to these benchmark modules or nodes "
                             "(other sections of the scale are preserved)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    report = {"benchmark": "repro.sim simulators",
              "source": list(BENCH_FILES), "scales": {}}
    if args.out.exists():
        report.update(json.loads(args.out.read_text()))
    report["benchmark"] = "repro.sim simulators"
    report["source"] = list(BENCH_FILES)
    for scale in args.scales:
        print(f"== running {', '.join(args.files)} at scale {scale}")
        existing = report["scales"].get(scale, {})
        existing.update(consolidate(scale, run_benchmarks(scale, args.files)))
        report["scales"][scale] = existing
    report["updated"] = datetime.date.today().isoformat()
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
