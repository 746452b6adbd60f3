"""Which program callables the traced run wraps, and the per-layer metrics.

``SPECS`` maps span names to public functions and methods of the program's
layers: ``<layer>.<operation>``, where the layer is the part before the dot.
``PER_LAYER`` lists every per-layer metric with its unit and direction (the
``per_layer`` block of ``BENCHMARK.json`` must equal it), and
:func:`layer_metrics` computes them from a finished :class:`tracer.Tracer`
plus the counters the program exposes publicly.

A ``<layer>.<operation>_s`` metric is the summed *self* time of that
operation's spans (time in nested wrapped calls is charged to them), and
``<layer>.self_s`` is the layer's total self time, so the ``*.self_s``
metrics plus ``other.self_s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: The registry scenarios at tiny scale (``scenario.<name>_s``).
SCENARIOS = ("failures", "fidelity", "fig02", "fig04", "fig06", "fig07", "fig08", "fig09",
             "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
             "fig19", "fig20", "incast", "shuffle", "steady", "tab01", "tab04", "tab05")

#: Layers in program order; each has a ``<layer>.self_s`` metric.
LAYERS = ("topologies", "kernels", "core", "routing", "diversity", "mcf", "traffic",
          "engine", "allocstate", "stream", "packetengine", "grid", "scenario")


# --------------------------------------------------------------------- hooks
def _begin_request(tracer, args, kwargs) -> None:
    tracer.current_request = int(tracer.counters.get("requests", 0))
    tracer.count("requests")


def _end_request(tracer, args, kwargs, result) -> None:
    tracer.current_request = -1


def _bank_lookup(tracer, args, kwargs) -> None:
    bank, _, source, target = args
    tracer.count("bank.calls")
    if (source, target) not in bank.entries:
        tracer.count("bank.misses")


def _select_batch(tracer, args, kwargs, result) -> None:
    tracer.count("select.evaluated", len(result))
    tracer.count("select.switched", int(np.count_nonzero(result != args[2])))


def _recompute(tracer, args, kwargs, result) -> None:
    tracer.count("alloc.active", args[1].size)
    tracer.count("alloc.refilled", result.size)


def count_engine_meta(tracer, meta) -> None:
    """Fold one engine run's ``meta`` counters into the tracer's counters."""
    tracer.count("engine.events", meta.get("events", 0))
    stats = meta.get("allocator_stats", {})
    tracer.count("alloc.fills", sum(v for k, v in stats.items()
                                    if k.endswith("fills") or k == "rebuilds"))


def _engine_run(tracer, args, kwargs, result) -> None:
    count_engine_meta(tracer, result.meta)


def _packet_run(tracer, args, kwargs, result) -> None:
    tracer.count("packet.events", result.meta.get("events", 0))


def _methods(module_class: str, *names: str) -> List[str]:
    return [f"{module_class}.{name}" for name in names]


_ALLOCATORS = ("repro.sim.allocstate:FullAllocator", "repro.sim.allocstate:IncrementalAllocator",
               "repro.sim.bottleneck:BottleneckAllocator")
_SELECTORS = ("repro.core.loadbalance:FlowletSelector", "repro.core.loadbalance:EcmpSelector",
              "repro.core.loadbalance:PacketSpraySelector")
_ROUTINGS = ("repro.core.fatpaths:FatPathsRouting", "repro.routing.ecmp:EcmpRouting",
             "repro.routing.ksp:KShortestPathsRouting", "repro.routing.valiant:ValiantRouting",
             "repro.routing.spain:SpainRouting", "repro.routing.base:LayerSetRouting")

#: (span name, targets, pre hook, post hook); see ``tracer.Tracer.install``.
SPECS: List[Tuple[str, List[str], Optional[object], Optional[object]]] = [
    ("topologies.build", [f"repro.topologies.{m}:*" for m in (
        "slimfly", "dragonfly", "hyperx", "xpander", "fattree", "jellyfish", "complete",
        "star", "configs", "galois")], None, None),
    ("kernels.cache", ["repro.kernels.cache:kernels_for", "repro.kernels.cache:layer_kernels",
                       *_methods("repro.kernels.cache:PathCache", "kernels", "mutated")],
     None, None),
    ("kernels.graph", _methods("repro.kernels.cache:GraphKernels", "distances_from",
                               "distance_matrix", "pair_distance_rows",
                               "distance_matrix_float", "multi_source_distances",
                               "shortest_path_counts", "next_hop_table", "is_connected"),
     None, None),
    ("kernels.csr", [*_methods("repro.kernels.csr:CSRGraph", "from_edges",
                               "bfs_distances_batch", "distance_matrix",
                               "multi_source_distances", "eccentricities"),
                     "repro.kernels.csr:edges_connected",
                     "repro.kernels.csr:edges_connected_batch"], None, None),
    ("kernels.paths", ["repro.kernels.paths:*", "repro.kernels.nexthop:next_hop_table",
                       "repro.kernels.dirtyregion:*"], None, None),
    ("kernels.disjoint", ["repro.kernels.disjoint:batch_disjoint_paths"], None, None),
    ("core.layers", ["repro.core.layers:build_layers",
                     "repro.core.layers:random_edge_sampling_layers",
                     "repro.core.layers:interference_minimizing_layers"], None, None),
    ("core.forwarding", ["repro.core.forwarding:build_forwarding_tables"], None, None),
    ("core.select_initial", [f"{s}.initial_path" for s in _SELECTORS], None, None),
    ("core.select_batch", [f"{s}.next_path_batch" for s in _SELECTORS], None, _select_batch),
    ("routing.build", [f"{r}.__init__" for r in _ROUTINGS]
     + ["repro.routing.past:PastRouting.__init__"], None, None),
    ("routing.spain", ["repro.routing.spain:build_spain_layers"], None, None),
    ("routing.paths", [f"{r}.router_paths" for r in _ROUTINGS]
     + ["repro.routing.base:SinglePathRouting.router_paths"], None, None),
    ("diversity.metric", [f"repro.diversity.{m}:*" for m in (
        "collisions", "connectivity", "disjoint_paths", "interference", "matrixcount",
        "metrics", "minimal_paths")], None, None),
    ("mcf.model", ["repro.mcf.general:*", "repro.mcf.layered:*", "repro.mcf.throughput:*"],
     None, None),
    ("mcf.lp", ["repro.mcf.layered:linprog"], None, None),
    ("traffic.generate", [f"repro.traffic.{m}:*" for m in (
        "patterns", "flows", "streams", "worstcase")] + ["repro.core.mapping:*"], None, None),
    ("engine.run", ["repro.sim.engine:simulate_many", "repro.sim.flowsim:simulate_workload",
                    "repro.sim.reference:FlowLevelSimulator.run"], None, None),
    ("engine.run", ["repro.sim.engine:FlowEngine.run"], None, _engine_run),
    ("engine.links", ["repro.sim.engine:LinkSpace.__init__"], None, None),
    ("engine.step", ["repro.sim.engine:EngineCore.step"], None, None),
    ("engine.advance", ["repro.sim.engine:EngineCore.advance_to"], None, None),
    ("engine.admit", ["repro.sim.engine:EngineCore.admit_pending"], None, None),
    ("engine.switch", ["repro.sim.engine:EngineCore.maybe_switch_paths"], None, None),
    ("engine.rates", ["repro.sim.engine:EngineCore.recompute_rates"], None, None),
    ("engine.fault", _methods("repro.sim.engine:EngineCore", "apply_fault_epoch",
                              "maybe_switch_paths_faulted"), None, None),
    ("engine.bank_entry", ["repro.sim.engine:CandidateBank.entry"], _bank_lookup, None),
    ("allocstate.recompute", [f"{a}.recompute" for a in _ALLOCATORS], None, _recompute),
    ("allocstate.update", [f"{a}.{op}" for a in _ALLOCATORS
                           for op in ("add", "remove", "switch")], None, None),
    ("stream.push", ["repro.sim.stream:StreamSimulator.push"], None, None),
    ("stream.advance", ["repro.sim.stream:StreamSimulator.advance"], None, None),
    ("stream.compact", ["repro.sim.stream:StreamSimulator.compact"], None, None),
    ("stream.service", _methods("repro.sim.stream:StreamSimulator", "__init__", "run",
                                "finish", "summary"), None, None),
    ("packetengine.run", ["repro.sim.packetsim:simulate_packets"], None, None),
    ("packetengine.run", ["repro.sim.packetengine:PacketEngine.run"], None, _packet_run),
    ("grid.run", ["repro.experiments.grid:run_experiment_grid",
                  "repro.experiments.resilient:run_resilient_grid",
                  "repro.experiments.grid:make_grid", "repro.experiments.grid:split_heavy_cells",
                  "repro.experiments.grid:combine_cell_results"], None, None),
    ("scenario.run", ["repro.experiments.common:run_experiment"], _begin_request, _end_request),
    ("scenario.pipeline", ["repro.experiments.scenario:run_scenario",
                           "repro.experiments.scenario:normalized_rows"], None, None),
    ("scenario.stack", ["repro.experiments.simcommon:build_stack",
                        "repro.experiments.simcommon:simulate_stack_many",
                        "repro.experiments.simcommon:simulate_stack"], None, None),
]


def _per_layer() -> List[Tuple[str, str, str]]:
    s, n, r = "s", "count", "ratio"
    return [
        ("topologies.self_s", s, "lower"), ("topologies.calls", n, "lower"),
        ("kernels.self_s", s, "lower"), ("kernels.disjoint_s", s, "lower"),
        ("kernels.cache_hits", n, "higher"), ("kernels.cache_misses", n, "lower"),
        ("kernels.cache_hit_ratio", r, "higher"), ("kernels.retained_mb", "MiB", "lower"),
        ("kernels.derive_partial", n, "higher"), ("kernels.derive_full", n, "lower"),
        ("core.self_s", s, "lower"), ("core.layers_s", s, "lower"),
        ("core.forwarding_s", s, "lower"), ("core.select_initial_s", s, "lower"),
        ("core.select_batch_s", s, "lower"), ("core.select_evaluated", n, "lower"),
        ("core.select_switch_ratio", r, "lower"),
        ("routing.self_s", s, "lower"), ("routing.spain_s", s, "lower"),
        ("routing.builds", n, "lower"),
        ("diversity.self_s", s, "lower"),
        ("mcf.self_s", s, "lower"), ("mcf.lp_solves", n, "lower"),
        ("traffic.self_s", s, "lower"),
        ("engine.self_s", s, "lower"), ("engine.events", n, "lower"),
        ("engine.step_s", s, "lower"), ("engine.advance_s", s, "lower"),
        ("engine.admit_s", s, "lower"), ("engine.switch_s", s, "lower"),
        ("engine.rates_s", s, "lower"), ("engine.fault_s", s, "lower"),
        ("engine.us_per_event", "us", "lower"), ("engine.bank_entry_s", s, "lower"),
        ("engine.bank_pairs", n, "lower"), ("engine.bank_hit_ratio", r, "higher"),
        ("allocstate.self_s", s, "lower"), ("allocstate.recompute_s", s, "lower"),
        ("allocstate.update_s", s, "lower"), ("allocstate.fills", n, "lower"),
        ("allocstate.refill_ratio", r, "lower"),
        ("stream.self_s", s, "lower"), ("stream.push_s", s, "lower"),
        ("stream.advance_s", s, "lower"), ("stream.compact_s", s, "lower"),
        ("stream.compactions", n, "lower"), ("stream.pool_compactions", n, "lower"),
        ("stream.peak_active", n, "lower"), ("stream.peak_slots", n, "lower"),
        ("packetengine.self_s", s, "lower"), ("packetengine.events", n, "lower"),
        ("grid.self_s", s, "lower"), ("grid.cells", n, "lower"), ("grid.attempts", n, "lower"),
        ("grid.overhead_s", s, "lower"), ("grid.pool_util", r, "higher"),
        ("grid.longest_cell_s", s, "lower"),
        ("scenario.self_s", s, "lower"),
        *((f"scenario.{name}_s", s, "lower") for name in SCENARIOS),
        ("other.self_s", s, "lower"), ("trace.wall_s", s, "lower"),
        ("trace.overhead_frac", r, "lower"), ("trace.spans", n, "lower"),
    ]


#: Every per-layer metric as (name, unit, better).
PER_LAYER = _per_layer()


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(names: Dict[str, Dict[str, float]], counters: Dict[str, float],
                  cache: Dict[str, int], stream: Optional[Dict[str, object]],
                  grid: Dict[str, float], trace_wall: float, root_s: float,
                  overhead_frac: float, spans: int) -> Dict[str, float]:
    """Per-layer metric values (``PER_LAYER`` order; 0 where a layer did not run).

    ``names`` is :func:`tracer.per_name`, ``counters`` the hook counters,
    ``cache`` ``global_cache().stats()``, ``stream`` a ``StreamSimulator.summary()``
    (or ``None``), ``grid`` the ``grid.*``/``scenario.<name>_s`` values of the
    grid results, ``root_s`` the summed top-level span time.
    """
    def self_of(prefix: str) -> float:
        return sum(v["self_s"] for k, v in names.items()
                   if k == prefix or k.startswith(prefix + "."))

    def field(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    c = counters.get
    stream = stream or {}
    step_calls = field("engine.step", "calls")
    values: Dict[str, float] = {f"{layer}.self_s": self_of(layer) for layer in LAYERS}
    values.update({
        "topologies.calls": field("topologies.build", "outer_calls"),
        "kernels.disjoint_s": self_of("kernels.disjoint"),
        "kernels.cache_hits": cache.get("hits", 0),
        "kernels.cache_misses": cache.get("misses", 0),
        "kernels.cache_hit_ratio": _ratio(cache.get("hits", 0),
                                          cache.get("hits", 0) + cache.get("misses", 0)),
        "kernels.retained_mb": cache.get("retained_bytes", 0) / 2 ** 20,
        "kernels.derive_partial": cache.get("derive_partial", 0),
        "kernels.derive_full": cache.get("derive_full", 0),
        "core.layers_s": self_of("core.layers"),
        "core.forwarding_s": self_of("core.forwarding"),
        "core.select_initial_s": self_of("core.select_initial"),
        "core.select_batch_s": self_of("core.select_batch"),
        "core.select_evaluated": c("select.evaluated", 0),
        "core.select_switch_ratio": _ratio(c("select.switched", 0), c("select.evaluated", 0)),
        "routing.spain_s": self_of("routing.spain"),
        "routing.builds": field("routing.build", "outer_calls"),
        "mcf.lp_solves": field("mcf.lp", "calls"),
        "engine.events": c("engine.events", 0),
        "engine.step_s": self_of("engine.step"),
        "engine.advance_s": self_of("engine.advance"),
        "engine.admit_s": self_of("engine.admit"),
        "engine.switch_s": self_of("engine.switch"),
        "engine.rates_s": self_of("engine.rates"),
        "engine.fault_s": self_of("engine.fault"),
        "engine.us_per_event": 1e6 * _ratio(field("engine.step", "total_s"), step_calls),
        "engine.bank_entry_s": self_of("engine.bank_entry"),
        "engine.bank_pairs": c("bank.misses", 0),
        "engine.bank_hit_ratio": _ratio(c("bank.calls", 0) - c("bank.misses", 0),
                                        c("bank.calls", 0)),
        "allocstate.recompute_s": self_of("allocstate.recompute"),
        "allocstate.update_s": self_of("allocstate.update"),
        "allocstate.fills": c("alloc.fills", 0),
        "allocstate.refill_ratio": _ratio(c("alloc.refilled", 0), c("alloc.active", 0)),
        "stream.push_s": self_of("stream.push"),
        "stream.advance_s": self_of("stream.advance"),
        "stream.compact_s": self_of("stream.compact"),
        "stream.compactions": stream.get("slot_compactions", 0),
        "stream.pool_compactions": stream.get("pool_compactions", 0),
        "stream.peak_active": stream.get("peak_active", 0),
        "stream.peak_slots": stream.get("peak_slots", 0),
        "packetengine.events": c("packet.events", 0),
        "other.self_s": trace_wall - root_s,
        "trace.wall_s": trace_wall,
        "trace.overhead_frac": overhead_frac,
        "trace.spans": spans,
    })
    return {name: float(values.get(name, grid.get(name, 0.0))) for name, _, _ in PER_LAYER}
