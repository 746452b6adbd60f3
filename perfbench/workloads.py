"""The benchmark's workloads.

Each workload has ``setup(seed, size, clock, units)`` — topology build, seeded
input generation (timed separately and excluded from ``setup_s``) and stack
construction — and ``measure(state, tracer, units, clock)``, which runs
``units`` units of measured work and checks every output: whole registry
passes on ``paper_serial``, one independent stream each on ``stream_small``.
The program is called only through its public API, through module
attributes looked up at call time so a traced run sees the wrapped callables.

``size="full"`` is the benchmark; ``size="test"`` is a seconds-long version
of the same driver for the self-tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "experiments" / "golden" / "tiny_seed0.json"

@dataclass
class Outcome:
    """What one measured run produced."""

    unit_walls: List[float] = field(default_factory=list)   # host seconds per unit
    samples: List[float] = field(default_factory=list)      # host seconds per operation
    attempted: int = 0
    failed: int = 0
    work: int = 0                                 # events (sims) or cells (registry)
    mismatches: List[str] = field(default_factory=list)
    grid: Dict[str, float] = field(default_factory=dict)
    stream_summary: Optional[Dict[str, object]] = None   # summed counts, largest peaks
    stream_metas: List[Dict[str, object]] = field(default_factory=list)  # engine meta
    expected: Optional[object] = None             # what --record stores


def _shipped(name: str, state: dict) -> Optional[object]:
    """The committed expectation for this seed (the full-size runs only)."""
    if state["size"] != "full":
        return None
    return checks.load_expected(name).get(str(state["seed"]))


def _set_request(tracer, request: int) -> None:
    if tracer is not None:
        tracer.current_request = request


# ------------------------------------------------------------------ registry
class PaperWorkload:
    """Every registry scenario at tiny scale through the experiment grid, serially."""

    def setup(self, seed: int, size: str, clock, units: int = 1) -> dict:
        from repro.experiments import common, grid

        names = sorted(common.registry()) if size == "full" else ["fig07", "tab01"]
        cells = grid.make_grid(names, ("tiny",), (seed,))
        return {"seed": seed, "names": names, "cells": cells, "gen_s": 0.0}

    def measure(self, state: dict, tracer, units: int, clock) -> Outcome:
        from repro.experiments import grid

        out = Outcome()
        results = []
        for _ in range(units):
            start = clock()
            results = grid.run_experiment_grid(state["cells"])
            out.unit_walls.append(clock() - start)
            # a scenario's latency: how long into the pass its rows are ready
            out.samples.extend(np.cumsum([r.elapsed_seconds for r in results]).tolist())
        wall = out.unit_walls[-1]
        elapsed = [r.elapsed_seconds for r in results]
        out.work = len(results)
        out.attempted = len(results) * units
        out.grid = {"grid.cells": len(results),
                    "grid.attempts": sum(r.attempts for r in results),
                    "grid.overhead_s": wall - sum(elapsed),
                    "grid.pool_util": sum(elapsed) / wall,
                    "grid.longest_cell_s": max(elapsed)}
        out.grid.update({f"scenario.{r.cell.name}_s": r.elapsed_seconds for r in results})
        bad = {r.cell.name for r in results if not r.ok}
        out.mismatches = [f"{r.cell.label()}: {r.error}" for r in results if not r.ok]
        rows = {r.cell.name: checks.json_rows(r.result.rows) for r in results if r.ok}
        bad |= self._check(state, rows, out)
        out.failed = units * sum(1 for r in results if r.cell.name in bad)
        out.expected = {name: checks.rows_digest(rows[name]) for name in sorted(rows)}
        return out

    def _check(self, state: dict, rows: Dict[str, List[dict]], out: Outcome) -> set:
        golden = json.loads(GOLDEN.read_text())
        shipped = checks.load_expected("paper").get(str(state["seed"]))
        bad = set()
        for name in state["names"]:
            got = rows.get(name, [])
            if state["seed"] == 0:
                problems = [] if got == golden.get(name) else [f"{name}: rows differ from golden"]
            elif shipped is not None:
                problems = [] if checks.rows_digest(got) == shipped.get(name) \
                    else [f"{name}: rows differ from the committed hash"]
            else:
                problems = checks.row_invariants(name, got, golden.get(name))
            if problems:
                bad.add(name)
                out.mismatches.extend(problems)
        return bad


# -------------------------------------------------------------------- stream
class StreamWorkload:
    """The fatpaths stack as a service: seeded Poisson arrivals pushed in batches.

    One unit is one service fed one stream; the units of a run get independent
    streams (patterns and arrivals) drawn from the seed, so a run's numbers
    average over several inputs rather than hang on one heavy-tailed draw.
    """

    #: (topology size class, batch size, pushes per stream) per benchmark size
    SIZES = {"full": ("small", 2, 2000), "test": ("tiny", 2, 40)}
    PAIR_RATE = 400.0          # pFabric flows per second per communicating pair
    WINDOW = 0.001             # simulated seconds per metrics window

    def setup(self, seed: int, size: str, clock, units: int = 1) -> dict:
        from repro.experiments import simcommon
        from repro.topologies import configs
        from repro.traffic import patterns, streams

        size_class, batch, pushes = self.SIZES[size]
        topology = configs.build("SF", size_class)
        gen = clock()
        inputs = []
        for unit in range(units):
            rng = np.random.default_rng([seed, unit])
            pattern = patterns.random_permutation(topology.num_endpoints, rng).subsample(0.5, rng)
            inputs.append(list(streams.poisson_flow_stream(pattern, self.PAIR_RATE, rng=rng,
                                                           max_flows=batch * pushes)))
        gen_s = clock() - gen
        routing_cache: dict = {}
        simcommon.build_stack(topology, "fatpaths", seed=seed, routing_cache=routing_cache)
        return {"seed": seed, "size": size, "topology": topology, "inputs": inputs,
                "gen_s": gen_s, "batch": batch, "routing_cache": routing_cache}

    def measure(self, state: dict, tracer, units: int, clock) -> Outcome:
        from repro.experiments import simcommon
        from repro.sim import simconfig, stream

        out = Outcome()
        topology, seed, batch_size = state["topology"], state["seed"], state["batch"]
        shipped = _shipped("stream_small", state) or []
        line_rate = simconfig.FlowSimConfig().link_rate_bps / 8
        summaries, out.stream_metas, out.expected = [], [], []
        for unit, flows in enumerate(state["inputs"][:units]):
            batches = [flows[i:i + batch_size] for i in range(0, len(flows), batch_size)]
            stack = simcommon.build_stack(topology, "fatpaths", seed=seed,
                                          routing_cache=state["routing_cache"])
            records: list = []
            start = clock()
            service = stream.StreamSimulator(
                topology, stack.routing, selector=stack.selector, transport=stack.transport,
                seed=seed, stream_config=simconfig.StreamConfig(window=self.WINDOW),
                record_sink=records.append)
            for i, batch in enumerate(batches):
                _set_request(tracer, unit * len(batches) + i)
                t = clock()
                service.push(batch)
                if i + 1 < len(batches):
                    service.advance(batches[i + 1][0].start_time, inclusive=False)
                else:
                    service.finish()
                out.samples.append(clock() - t)
            _set_request(tracer, -1)
            out.unit_walls.append(clock() - start)
            summary = service.summary()
            out.work += summary["events"]
            out.attempted += len(batches)
            actual = {"summary": summary, "records": checks.record_digest(records)}
            if unit < len(shipped):
                problems = checks.compare(shipped[unit], actual, f"stream{unit}")
            else:
                problems = checks.flow_invariants(records, flows, line_rate)
            if problems:
                out.failed += len(batches)
                out.mismatches.extend(problems)
            summaries.append(summary)
            out.stream_metas.append(service.meta())
            out.expected.append(actual)
        out.stream_summary = {
            "slot_compactions": sum(s["slot_compactions"] for s in summaries),
            "pool_compactions": sum(s["pool_compactions"] for s in summaries),
            "peak_active": max(s["peak_active"] for s in summaries),
            "peak_slots": max(s["peak_slots"] for s in summaries)}
        return out


WORKLOADS = {
    "paper_serial": PaperWorkload(),
    "stream_small": StreamWorkload(),
}

#: expectation file per workload
EXPECTED_NAME = {"paper_serial": "paper", "stream_small": "stream_small"}
