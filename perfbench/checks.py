"""Output digests and the checks behind ``attempted``/``failed``.

Simulation outputs are reduced to a digest (:func:`record_digest`): flow
count, hashes of the flow ids and of the per-flow switch and congestion
counts (compared exactly), and the completion-time sum plus an evenly spaced
sample of completion times (compared to 1e-9 relative).  Registry rows are
compared through ``normalized_rows`` and a JSON round trip: against the
golden fixture at seed 0, against committed row hashes at the other shipped
seeds.  Seeds with no committed expectation get invariant checks only.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Relative tolerance for completion times and other float outputs.
REL_TOL = 1e-9

#: Completion times kept per digest (evenly spaced over the flows by id).
SAMPLE = 32


def _sha(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


def record_digest(records: Sequence) -> Dict[str, object]:
    """Digest of a run's :class:`~repro.sim.metrics.FlowRecord` list."""
    records = sorted(records, key=lambda r: r.flow_id)
    ids = np.array([r.flow_id for r in records], dtype=np.int64)
    switches = np.array([r.num_path_switches for r in records], dtype=np.int64)
    congestion = np.array([r.congestion_events for r in records], dtype=np.int64)
    completion = [float(r.completion_time) for r in records]
    picks = np.unique(np.linspace(0, len(records) - 1, SAMPLE).astype(int)) if records else []
    return {"flows": len(records), "ids_sha": _sha(ids),
            "switches": int(switches.sum()), "switches_sha": _sha(switches),
            "congestion": int(congestion.sum()), "congestion_sha": _sha(congestion),
            "completion_sum": math.fsum(completion),
            "completion_sample": [[int(ids[i]), completion[i]] for i in picks]}


def rows_digest(rows: Iterable[dict]) -> str:
    """Hash of one scenario's rows in the golden fixture's JSON form."""
    return hashlib.sha256(json.dumps(json_rows(rows), sort_keys=True).encode()).hexdigest()


def json_rows(rows: Iterable[dict]) -> List[dict]:
    """Rows through ``normalized_rows`` and a JSON round trip (the golden form)."""
    from repro.experiments.scenario import normalized_rows

    return json.loads(json.dumps(normalized_rows(rows)))


def _close(expected: float, actual: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    return abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual))


def compare(expected, actual, path: str = "") -> List[str]:
    """Mismatches between an expected and an actual output (empty if equal).

    Integers, strings and booleans must be equal, floats equal to
    ``REL_TOL`` relative; dicts compare on the expected keys, lists
    element by element.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {type(actual).__name__}"]
        out: List[str] = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}/{key}: missing")
            else:
                out.extend(compare(value, actual[key], f"{path}/{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        return [] if _close(expected, float(actual)) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def load_expected(name: str) -> Dict[str, object]:
    """The committed expectations ``expected/<name>.json`` keyed by seed."""
    path = EXPECTED_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def store_expected(name: str, seed: int, value: object) -> None:
    """Record (or replace) the expectation of one seed."""
    table = load_expected(name)
    table[str(seed)] = value
    EXPECTED_DIR.mkdir(exist_ok=True)
    (EXPECTED_DIR / f"{name}.json").write_text(
        json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), indent=1,
                   sort_keys=True) + "\n")


def flow_invariants(records: Sequence, flows: Sequence, line_rate: float) -> List[str]:
    """Checks that hold for any seed: every input flow completes exactly once,
    and no flow finishes faster than its size at line rate."""
    done = sorted(r.flow_id for r in records)
    if done != sorted(f.flow_id for f in flows):
        return [f"completed flow ids differ from the {len(flows)} input flows"]
    starts = {f.flow_id: (f.start_time, f.size_bytes) for f in flows}
    for r in records:
        start, size = starts[r.flow_id]
        if not r.completion_time >= start + size / line_rate * (1 - REL_TOL):
            return [f"flow {r.flow_id} completes at {r.completion_time!r}, "
                    f"faster than line rate allows"]
    return []


def row_invariants(name: str, rows: List[dict], golden: Optional[List[dict]]) -> List[str]:
    """Checks for a scenario at a seed without committed rows: rows wherever
    the golden fixture has them, each holding the scenario's base columns
    (other columns, such as histogram bins, depend on the seed)."""
    from repro.experiments.scenario import scenario_spec

    if bool(rows) != bool(golden):
        return [f"{name}: {len(rows)} rows, golden has {len(golden or [])}"]
    base = scenario_spec(name).base_columns
    missing = sorted({column for row in rows for column in base if column not in row})
    return [f"{name}: rows lack base columns {missing}"] if missing else []
