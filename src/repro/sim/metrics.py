"""Flow-completion-time and throughput metrics (paper §VII-A5).

Batch summaries (:class:`SimulationResult`, :func:`summarize_flows`) plus the
bounded-memory streaming estimators the streaming service layer
(:mod:`repro.sim.stream`) feeds one completion at a time: :class:`P2Quantile`
(the P² algorithm — five markers, no sample storage) and
:class:`ReservoirSample` (uniform fixed-size sample, exact percentiles while
under capacity).  Both are plain picklable objects, so a stream checkpoint
restores them bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class FlowRecord:
    """Result of one simulated flow."""

    flow_id: int
    source: int
    destination: int
    size_bytes: float
    start_time: float
    completion_time: float
    path_hops: float
    num_path_switches: int = 0
    congestion_events: int = 0

    @property
    def fct(self) -> float:
        """Flow completion time in seconds."""
        return self.completion_time - self.start_time

    @property
    def throughput(self) -> float:
        """Throughput per flow in bytes/s (the paper's TPF = size / FCT)."""
        return self.size_bytes / self.fct if self.fct > 0 else float("inf")


@dataclass
class SimulationResult:
    """All flow records of one simulation run plus summary helpers."""

    records: List[FlowRecord]
    name: str = "simulation"
    meta: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def fcts(self) -> np.ndarray:
        """Per-flow completion times in seconds (record order)."""
        return np.array([r.fct for r in self.records])

    def throughputs(self) -> np.ndarray:
        """Per-flow throughputs in bytes/s (record order)."""
        return np.array([r.throughput for r in self.records])

    def sizes(self) -> np.ndarray:
        """Per-flow sizes in bytes (record order)."""
        return np.array([r.size_bytes for r in self.records])

    def warmup_filtered(self, warmup_fraction: float = 0.5) -> "SimulationResult":
        """Drop flows that start in the first ``warmup_fraction`` of the start-time window
        (the paper drops the first half of the window for warm-up)."""
        if not self.records or warmup_fraction <= 0:
            return self
        starts = np.array([r.start_time for r in self.records])
        cutoff = starts.min() + warmup_fraction * (starts.max() - starts.min())
        kept = [r for r in self.records if r.start_time >= cutoff]
        if not kept:
            kept = self.records
        return SimulationResult(records=kept, name=self.name, meta=dict(self.meta))

    def summary(self, percentiles: Sequence[float] = (1, 10, 50, 90, 99)) -> Dict[str, float]:
        """Mean/percentile FCT and throughput summary (see :func:`summarize_flows`)."""
        return summarize_flows(self.records, percentiles)

    def by_size_bucket(self, buckets: Sequence[float]) -> Dict[float, "SimulationResult"]:
        """Partition records by flow size (bucket = largest bound >= size)."""
        out: Dict[float, List[FlowRecord]] = {b: [] for b in buckets}
        sorted_buckets = sorted(buckets)
        for record in self.records:
            for bound in sorted_buckets:
                if record.size_bytes <= bound:
                    out[bound].append(record)
                    break
            else:
                out[sorted_buckets[-1]].append(record)
        return {b: SimulationResult(records=rs, name=f"{self.name}|<= {int(b)}B", meta=dict(self.meta))
                for b, rs in out.items()}


def summarize_flows(records: Sequence[FlowRecord],
                    percentiles: Sequence[float] = (1, 10, 50, 90, 99)) -> Dict[str, float]:
    """Mean/percentile summary of FCT and per-flow throughput."""
    if not records:
        return {"count": 0}
    fct = np.array([r.fct for r in records])
    tput = np.array([r.throughput for r in records])
    summary: Dict[str, float] = {
        "count": float(len(records)),
        "fct_mean": float(fct.mean()),
        "fct_max": float(fct.max()),
        "throughput_mean": float(tput.mean()),
        "path_hops_mean": float(np.mean([r.path_hops for r in records])),
        "path_switches_mean": float(np.mean([r.num_path_switches for r in records])),
    }
    for p in percentiles:
        summary[f"fct_p{p:g}"] = float(np.percentile(fct, p))
        summary[f"throughput_p{p:g}"] = float(np.percentile(tput, p))
    # the paper reports "1% tail" throughput = the 1st percentile of per-flow throughput
    summary["throughput_tail"] = summary.get("throughput_p1", float(tput.min()))
    summary["fct_tail"] = summary.get("fct_p99", float(fct.max()))
    return summary


# ------------------------------------------------------------ streaming estimators
class P2Quantile:
    """Streaming quantile estimate by the P² algorithm (Jain & Chlamtac, 1985).

    Five markers track the running ``q``-quantile in O(1) memory: the first five
    observations seed the markers, every later observation shifts marker
    positions and adjusts heights by a piecewise-parabolic fit.  All state is a
    handful of floats, entirely determined by the observation sequence — no RNG
    — so a pickled estimator resumes bit-identically.  Below five observations
    :meth:`value` falls back to the exact percentile of the buffer.
    """

    def __init__(self, q: float) -> None:
        """Track the ``q``-quantile, ``0 < q < 1``."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._pos: List[float] = []
        self._desired: List[float] = []
        self._inc: List[float] = []

    def add(self, value: float) -> None:
        """Observe one value."""
        value = float(value)
        self.count += 1
        h = self._heights
        if self.count <= 5:
            h.append(value)
            h.sort()
            if self.count == 5:
                q = self.q
                self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while value >= h[k + 1]:
                k += 1
        pos, desired, inc = self._pos, self._desired, self._inc
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            desired[i] += inc[i]
        for i in (1, 2, 3):
            delta = desired[i] - pos[i]
            if (delta >= 1.0 and pos[i + 1] - pos[i] > 1.0) or \
                    (delta <= -1.0 and pos[i - 1] - pos[i] < -1.0):
                sign = 1.0 if delta >= 0 else -1.0
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, sign)
                pos[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        """Piecewise-parabolic (P²) height adjustment of marker ``i``."""
        h, pos = self._heights, self._pos
        return h[i] + sign / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + sign) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - sign) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1]))

    def _linear(self, i: int, sign: float) -> float:
        """Linear fallback when the parabolic fit leaves the bracketing heights."""
        h, pos = self._heights, self._pos
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The current quantile estimate (NaN before any observation)."""
        if self.count == 0:
            return float("nan")
        if self.count < 5:
            return float(np.quantile(np.array(self._heights), self.q))
        return self._heights[2]


class ReservoirSample:
    """Uniform fixed-size sample of a stream (Vitter's algorithm R).

    Holds at most ``capacity`` values; while under capacity the sample is the
    whole stream, so :meth:`percentile` is exact — the per-window FCT reservoirs
    of the streaming service are sized to cover a window's completions and only
    degrade to sampling under overload.  Replacement draws come from the caller's
    ``rng`` (one bounded-integer draw per observation past capacity), which is
    pickled along with the sample, so a pickled reservoir resumes
    bit-identically.
    """

    def __init__(self, capacity: int, rng: np.random.Generator) -> None:
        """An empty reservoir of ``capacity`` values drawing from ``rng``."""
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng
        self.items: List[float] = []
        self.seen = 0

    def add(self, value: float) -> None:
        """Observe one value."""
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(float(value))
            return
        j = int(self.rng.integers(0, self.seen))
        if j < self.capacity:
            self.items[j] = float(value)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile of the sample (NaN while empty)."""
        if not self.items:
            return float("nan")
        return float(np.percentile(np.array(self.items), p))

    def mean(self) -> float:
        """Mean of the sample (NaN while empty)."""
        if not self.items:
            return float("nan")
        return float(np.mean(self.items))


def speedup_over_baseline(result: SimulationResult, baseline: SimulationResult,
                          metric: str = "fct_mean") -> float:
    """Relative speedup of ``result`` over ``baseline`` for an FCT-style metric.

    A value > 1 means ``result`` is faster (smaller FCT) — the convention used by the
    paper's Figures 14 and 17.
    """
    ours = result.summary().get(metric)
    theirs = baseline.summary().get(metric)
    if not ours or not theirs:
        return float("nan")
    return theirs / ours
