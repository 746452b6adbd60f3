"""Declarative scenario registry + the shared execution pipeline for all experiments.

Every paper table/figure (and every new workload scenario) is described by one
:class:`ScenarioSpec`: a declarative header (name, paper reference, topology axis,
row schema) plus a ``plan`` callable that expands the spec into
*units* — either finished result rows or :class:`SimSweep` batches of
:class:`~repro.experiments.simcommon.StackCell` cells.  :func:`run_scenario` is the
one pipeline every spec executes through:

1. resolve the topology axis to the families that run (the axis, narrowed to
   the scale's families and to a ``topologies=`` selection validated against
   the spec's family list),
2. iterate the plan's units, pushing every :class:`SimSweep` through the batched
   vectorized engine (:func:`repro.experiments.simcommon.simulate_stack_many`, which
   shares link spaces, candidate pools and — via ``ctx.routing_cache`` — routing
   construction across the sweep),
3. validate each produced row against the spec's row schema and assemble the final
   :class:`~repro.experiments.common.ExperimentResult`.

Scenarios declare a ``topology_names`` axis when (and only when) each family's
random stream is independent (one generator per ``(seed, family)``, see
:func:`repro.experiments.common.topology_rng`, or a fresh ``default_rng(seed)`` per
family).  That contract is what makes a scenario *splittable*: the grid runner
(:func:`repro.experiments.grid.split_heavy_cells`) may fan one scenario into
per-family cells — each carrying its own batched ``SimSweep`` group — across the
process pool, and the concatenated split rows equal the unsplit run's rows exactly
(pinned by ``tests/experiments/test_scenario.py``).

The central registry maps scenario names to their defining modules; each module
exposes a module-level ``SCENARIO`` spec, which :func:`run_scenario` (or
:func:`repro.experiments.common.run_experiment` by name) executes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    Scale,
    select_topologies,
    topology_rng,
)

#: A result row: one typed record of a scenario's output table.  Values must be
#: scalars (str/int/float/bool/None, NumPy scalars included) — the common row schema
#: consumed by the CLI summary, the grid merger and the examples.
Row = Dict[str, object]

_SCALARS = (str, int, float, bool, np.integer, np.floating, np.bool_)


# -------------------------------------------------------------------- registry
#: scenario name -> defining module (one per paper table/figure or new workload).
SCENARIO_MODULES: Dict[str, str] = {
    "fig02": "repro.experiments.fig02_throughput_randomized",
    "fig04": "repro.experiments.fig04_collisions",
    "fig06": "repro.experiments.fig06_minimal_paths",
    "fig07": "repro.experiments.fig07_nonminimal_paths",
    "fig08": "repro.experiments.fig08_interference",
    "fig09": "repro.experiments.fig09_theoretical_mat",
    "fig10": "repro.experiments.fig10_cost",
    "fig11": "repro.experiments.fig11_adversarial",
    "fig12": "repro.experiments.fig12_layer_setup",
    "fig13": "repro.experiments.fig13_large_scale",
    "fig14": "repro.experiments.fig14_tcp_speedups",
    "fig15": "repro.experiments.fig15_fct_distribution",
    "fig16": "repro.experiments.fig16_rho_impact",
    "fig17": "repro.experiments.fig17_stencil",
    "fig19": "repro.experiments.fig19_edge_density",
    "fig20": "repro.experiments.fig20_flow_arrival",
    "failures": "repro.experiments.failures",
    "fidelity": "repro.experiments.fidelity",
    "incast": "repro.experiments.incast_hotspot",
    "shuffle": "repro.experiments.broadcast_shuffle",
    "steady": "repro.experiments.steady_state",
    "tab01": "repro.experiments.tab01_scheme_comparison",
    "tab04": "repro.experiments.tab04_diversity_summary",
    "tab05": "repro.experiments.tab05_topologies",
}


def scenario_spec(name: str) -> "ScenarioSpec":
    """The registered :class:`ScenarioSpec` called ``name`` (modules import lazily)."""
    if name not in SCENARIO_MODULES:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIO_MODULES)}")
    module = importlib.import_module(SCENARIO_MODULES[name])
    spec = getattr(module, "SCENARIO", None)
    if spec is None:
        raise AttributeError(
            f"module {SCENARIO_MODULES[name]} defines no SCENARIO spec")
    return spec


def all_scenario_specs() -> Dict[str, "ScenarioSpec"]:
    """All registered specs by name (imports every scenario module)."""
    return {name: scenario_spec(name) for name in SCENARIO_MODULES}


# --------------------------------------------------------------------- context
@dataclass
class ScenarioContext:
    """Everything a scenario plan sees: inputs, shared caches and output hooks.

    ``topologies`` holds the axis families that run, in axis order: those active
    at ``scale`` (:meth:`ScenarioSpec.families_at`) and, for a per-topology cell,
    selected by it; ``None`` when the spec has no topology axis.
    ``routing_cache`` deduplicates routing construction across a run's stack builds
    (pass it to :func:`repro.experiments.simcommon.build_stack`); ``note``/``meta``
    accumulate run-computed notes and metadata into the final result.
    """

    scale: Scale
    seed: int
    topologies: Optional[Tuple[str, ...]]
    routing_cache: Dict[tuple, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def rng(self, family: Optional[str] = None) -> np.random.Generator:
        """A deterministic generator: per run, or per ``(seed, family)`` when named.

        Use the named form for every family of a split axis — independent streams
        are what keeps split rows equal to unsplit rows.
        """
        if family is None:
            return np.random.default_rng(self.seed)
        return topology_rng(self.seed, family)

    def note(self, text: str) -> None:
        """Append a run-computed note (static notes live on the spec)."""
        self.notes.append(text)


# ----------------------------------------------------------------------- units
@dataclass
class SimSweep:
    """One batched simulation unit: StackCells on one topology plus an aggregator.

    The pipeline runs ``cells`` through
    :func:`repro.experiments.simcommon.simulate_stack_many` (cells in order, link
    space / candidate pools / routing shared) and passes the results — positionally
    matching ``cells`` — to ``aggregate``, which returns the unit's result rows.
    """

    topology: object
    cells: List[object]
    aggregate: Callable[[List[object]], Iterable[Row]]

    @classmethod
    def per_cell(cls, topology, cells, row_fn) -> "SimSweep":
        """A sweep aggregating one row per cell: ``row_fn(cell, result)``.

        The common aggregation shape; binding ``cells`` here (instead of in a
        caller-side lambda) removes the late-binding footgun of closures created
        inside a topology loop.
        """
        cells = list(cells)
        return cls(topology=topology, cells=cells,
                   aggregate=lambda results: [row_fn(cell, result)
                                              for cell, result in zip(cells, results)])


#: What a plan may yield: a finished row, or a batched simulation sweep.
Unit = object


# -------------------------------------------------------------------- the spec
@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment scenario.

    ``plan(ctx)`` yields units (:class:`Row` dicts or :class:`SimSweep` batches);
    everything else is a declarative header the pipeline, grid runner, docs and
    tests consume without executing the scenario.
    """

    #: Registry name (``fig02`` ... ``tab05``, or a new workload name).
    name: str
    #: One-line description (the ExperimentResult description).
    title: str
    #: Which paper table/figure the scenario reproduces ("—" for new workloads).
    paper_reference: str
    #: Expand the spec into units under a :class:`ScenarioContext`.
    plan: Callable[[ScenarioContext], Iterable[Unit]]
    #: Split axis: topology families with independent per-family random streams.
    #: ``None`` means the scenario has no topology axis (not splittable, and the
    #: ``topologies=`` filter is rejected).
    topology_names: Optional[Tuple[str, ...]] = None
    #: Optional ``scale -> families`` narrowing of the axis: which of
    #: ``topology_names`` the scenario actually runs at a given scale.  The grid
    #: splitter consults it so no zero-row per-family cells are dispatched;
    #: ``None`` means every family runs at every scale.
    scale_families: Optional[Callable[[Scale], Sequence[str]]] = None
    #: Static notes (run-computed notes append via ``ctx.note``).
    notes: Tuple[str, ...] = ()
    #: Columns every result row must carry (rows may add more, e.g. histogram bins).
    base_columns: Tuple[str, ...] = ()

    @property
    def splittable(self) -> bool:
        """True iff the grid may fan this scenario into per-family cells."""
        return self.topology_names is not None

    def families_at(self, scale: Scale | str) -> Optional[Tuple[str, ...]]:
        """The axis families that actually run at ``scale`` (``None``: no axis)."""
        if self.topology_names is None:
            return None
        if self.scale_families is None:
            return self.topology_names
        return tuple(self.scale_families(Scale(scale)))


def normalized_rows(rows: Iterable[Row]) -> List[Row]:
    """Rows with every value as a JSON-stable Python scalar.

    The one normalisation used for golden-row fixtures: ``tools/make_golden_rows.py``
    writes fixtures through it and ``tests/experiments/test_scenario.py`` compares
    through it, so the two can never drift.
    """
    def convert(value):
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        return value

    return [{str(key): convert(value) for key, value in row.items()} for row in rows]


def _check_row(spec: ScenarioSpec, row: object) -> Row:
    """Validate one produced row against the common row schema."""
    if not isinstance(row, dict):
        raise TypeError(f"scenario {spec.name} produced a non-dict row: {row!r}")
    for key, value in row.items():
        if not isinstance(key, str):
            raise TypeError(f"scenario {spec.name} row has a non-string column {key!r}")
        if value is not None and not isinstance(value, _SCALARS):
            raise TypeError(
                f"scenario {spec.name} row column {key!r} holds a non-scalar "
                f"{type(value).__name__}; result rows must be flat typed records")
    missing = [c for c in spec.base_columns if c not in row]
    if missing:
        raise ValueError(
            f"scenario {spec.name} row is missing base column(s) {missing}: {row}")
    return row


# ------------------------------------------------------------------- pipeline
def run_scenario(spec: ScenarioSpec, scale: Scale | str = Scale.TINY, seed: int = 0,
                 topologies: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Execute one scenario spec through the shared pipeline.

    ``topologies`` selects a subset of the spec's family axis (rows are identical
    to the matching subset of a full run — the split contract).
    """
    scale = Scale(scale)
    if spec.topology_names is None:
        if topologies is not None:
            raise TypeError(f"scenario {spec.name} has no topology axis; "
                            "the topologies= filter is not applicable")
        families = None
    else:
        selected = select_topologies(spec.topology_names, topologies)
        active = spec.families_at(scale)
        # fail loudly on families that exist on the axis but do not run at this
        # scale (the same spirit as select_topologies: no silent zero-row runs)
        inactive = [n for n in selected if n not in active]
        if topologies is not None and inactive:
            raise ValueError(
                f"scenario {spec.name} does not run topologies {inactive} at "
                f"scale {scale.value}; active: {list(active)}")
        families = tuple(n for n in selected if n in active)
    ctx = ScenarioContext(scale=scale, seed=seed, topologies=families)
    from repro.experiments.simcommon import simulate_stack_many

    rows: List[Row] = []
    # an explicitly empty selection means "no families": skip the plan entirely
    # (some builders treat an empty topology list as "everything")
    units = spec.plan(ctx) if families is None or families else ()
    for unit in units:
        if isinstance(unit, SimSweep):
            results = simulate_stack_many(unit.topology, unit.cells)
            for row in unit.aggregate(results):
                rows.append(_check_row(spec, row))
        else:
            rows.append(_check_row(spec, unit))
    meta: Dict[str, object] = {"scale": str(scale)}
    if families is not None:
        # only the families that ran, so unsplit metadata agrees with
        # recombined split-cell metadata
        meta["topologies"] = list(families)
    meta.update(ctx.meta)
    return ExperimentResult(
        name=spec.name, description=spec.title, paper_reference=spec.paper_reference,
        rows=rows, notes=list(spec.notes) + ctx.notes, meta=meta)
