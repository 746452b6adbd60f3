"""Shared infrastructure for the experiment modules.

* :class:`Scale` — how large an instance to run ("tiny" for CI/tests, "small" default
  for benchmarks, "medium"/"large" for closer-to-paper sizes).
* :class:`ExperimentResult` — a named set of result rows plus formatting helpers.
* :func:`registry` / :func:`run_experiment` — experiment discovery and dispatch.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.topologies.configs import SizeClass


class Scale(str, Enum):
    """Execution scale of an experiment relative to the paper's instance sizes."""

    TINY = "tiny"       # seconds; used by the test suite
    SMALL = "small"     # tens of seconds; default for benchmarks
    MEDIUM = "medium"   # minutes; closest to the paper's N ~ 10k class

    def size_class(self) -> SizeClass:
        return {Scale.TINY: SizeClass.TINY, Scale.SMALL: SizeClass.SMALL,
                Scale.MEDIUM: SizeClass.MEDIUM}[self]

    def pick(self, tiny, small, medium):
        """Select a per-scale parameter value."""
        return {Scale.TINY: tiny, Scale.SMALL: small, Scale.MEDIUM: medium}[self]


@dataclass
class ExperimentResult:
    """Result of one experiment: tabular rows plus free-form metadata."""

    name: str
    description: str
    paper_reference: str
    rows: List[Dict[str, object]]
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Plain-text table of the result rows (what the CLI prints)."""
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        cols = self.columns()
        if not rows:
            return "(no rows)"
        rendered = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
        header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
        sep = "  ".join("-" * w for w in widths)
        body = "\n".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rendered)
        return "\n".join([header, sep, body])

    def report(self) -> str:
        lines = [f"== {self.name}: {self.description}",
                 f"   (reproduces {self.paper_reference})", ""]
        lines.append(self.to_table())
        if self.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)

    def filter_rows(self, **criteria) -> List[Dict[str, object]]:
        """Rows matching all key=value criteria (convenience for tests)."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out


def topology_rng(seed: int, name: str) -> np.random.Generator:
    """A deterministic per-(seed, topology-name) random generator.

    Experiments that iterate several topology families draw each family's samples
    from its own generator instead of one shared stream, so running a filtered
    subset of families (see ``topologies=`` below and the per-topology grid cells in
    :mod:`repro.experiments.grid`) produces rows identical to the full run.  The
    name is folded in via CRC32 — stable across processes, unlike ``hash()``.
    """
    return np.random.default_rng((int(seed), zlib.crc32(name.encode("utf-8"))))


def select_topologies(available: Iterable[str],
                      topologies: Optional[Sequence[str]]) -> List[str]:
    """The subset of ``available`` names selected by a ``topologies=`` filter.

    ``None`` selects everything (the default full run); unknown names raise so a
    mistyped grid cell fails loudly instead of silently producing no rows.
    """
    names = list(available)
    if topologies is None:
        return names
    wanted = [str(t) for t in topologies]
    unknown = [t for t in wanted if t not in names]
    if unknown:
        raise ValueError(f"unknown topology selection {unknown}; available: {names}")
    return [n for n in names if n in wanted]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def registry() -> Dict[str, str]:
    """All experiment names and their defining module paths.

    The table itself lives on the scenario registry
    (:data:`repro.experiments.scenario.SCENARIO_MODULES`); this facade keeps the
    historical import location working.
    """
    from repro.experiments.scenario import SCENARIO_MODULES

    return dict(SCENARIO_MODULES)


def run_experiment(name: str, scale: Scale | str = Scale.TINY, seed: int = 0,
                   topologies: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Run one experiment by name through the shared scenario pipeline."""
    from repro.experiments.scenario import run_scenario, scenario_spec

    return run_scenario(scenario_spec(name), scale=Scale(scale), seed=seed,
                        topologies=topologies)
