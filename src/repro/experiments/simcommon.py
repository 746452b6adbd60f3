"""Shared helpers for the simulation-based experiments (Figures 2, 11-17, 20).

The paper evaluates a handful of recurring routing/transport stacks; this module maps
their names to concrete (routing scheme, path selector, transport model) triples and
provides entry points to simulate workloads under them — one at a time
(:func:`simulate_stack`) or as a batched cell sweep over the vectorized engine
(:func:`simulate_stack_many`, the path the figure experiments use).

Stack names
-----------
``fatpaths``        FatPaths layered routing + adaptive flowlet balancing + purified (NDP) transport
``fatpaths_rho1``   FatPaths with minimal-only layers (rho = 1)
``fatpaths_tcp``    FatPaths layers + flowlets on a TCP transport (the §VII-C cloud setting)
``ndp``             Minimal-path (ECMP-style) candidates + oblivious spraying (a uniformly
                    random candidate at each flowlet boundary or congestion signal) + NDP
                    transport (the fat-tree baseline of Handley et al.)
``ecmp``            Minimal-path candidates + static flow hashing + TCP (lower bound)
``letflow``         Minimal-path candidates + non-adaptive flowlet switching + TCP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fatpaths import FatPathsRouting
from repro.core.loadbalance import EcmpSelector, FlowletSelector, PacketSpraySelector, PathSelector
from repro.core.transport import TransportModel, dctcp_transport, ndp_transport, tcp_transport
from repro.routing.ecmp import EcmpRouting
from repro.sim.engine import SimCell, simulate_many
from repro.sim.flowsim import FlowSimConfig, simulate_workload
from repro.sim.metrics import SimulationResult
from repro.topologies.base import Topology
from repro.traffic.flows import Workload

STACKS = ("fatpaths", "fatpaths_rho1", "fatpaths_tcp", "ndp", "ecmp", "letflow")

#: The paper's four compared TCP deployments (Figures 14 and 17), in row order:
#: ECMP baseline, LetFlow, and FatPaths with rho = 0.6 / rho = 1 (both n = 4).
#: Values are ``build_stack`` keyword sets.
TCP_STACK_VARIANTS = {
    "ecmp": dict(stack="ecmp"),
    "letflow": dict(stack="letflow"),
    "fatpaths_rho0.6": dict(stack="fatpaths_tcp", num_layers=4, rho=0.6),
    "fatpaths_rho1": dict(stack="fatpaths_tcp", num_layers=4, rho=1.0),
}


@dataclass
class Stack:
    """One routing/load-balancing/transport combination used in the evaluation."""

    name: str
    routing: object
    selector: PathSelector
    transport: TransportModel


def build_stack(topology: Topology, stack: str, seed: int = 0,
                num_layers: Optional[int] = None, rho: Optional[float] = None,
                routing_cache: Optional[Dict[tuple, object]] = None) -> Stack:
    """Instantiate one of the named stacks for ``topology``.

    ``routing_cache`` (an ordinary dict owned by the caller) deduplicates the
    expensive routing construction across repeated builds: stacks with the same
    topology and routing parameters share one routing instance — FatPaths layer sets
    and forwarding tables are built once per distinct configuration, and the
    ECMP-family stacks (``ndp``/``ecmp``/``letflow``) share one candidate-path set.
    Routing construction is deterministic given its seed, so sharing changes no
    results; selectors are always fresh (their RNG streams are per-stack state).
    """
    if stack not in STACKS:
        raise ValueError(f"unknown stack {stack!r}; available: {STACKS}")
    if stack in ("fatpaths", "fatpaths_rho1", "fatpaths_tcp"):
        deployment = "tcp" if stack == "fatpaths_tcp" else "ethernet"
        from repro.core.config import recommended_config

        config = recommended_config(topology, deployment=deployment, seed=seed)
        if num_layers is not None:
            config = config.with_(num_layers=num_layers)
        if rho is not None:
            config = config.with_(rho=rho)
        if stack == "fatpaths_rho1":
            config = config.with_(rho=1.0)
        key = (topology.fingerprint(), "fatpaths", config)
        routing = None if routing_cache is None else routing_cache.get(key)
        if routing is None:
            routing = FatPathsRouting(topology, config)
            if routing_cache is not None:
                routing_cache[key] = routing
        selector = FlowletSelector(seed=seed, adaptive=True)
        transport = ndp_transport() if stack != "fatpaths_tcp" else dctcp_transport()
        return Stack(stack, routing, selector, transport)
    key = (topology.fingerprint(), "ecmp", 8, seed)
    routing = None if routing_cache is None else routing_cache.get(key)
    if routing is None:
        routing = EcmpRouting(topology, max_paths=8, seed=seed)
        if routing_cache is not None:
            routing_cache[key] = routing
    if stack == "ndp":
        return Stack(stack, routing, PacketSpraySelector(seed=seed), ndp_transport())
    if stack == "ecmp":
        return Stack(stack, routing, EcmpSelector(seed=seed), tcp_transport())
    return Stack(stack, routing, FlowletSelector(seed=seed, adaptive=False),
                 tcp_transport())


def simulate_stack(topology: Topology, stack: Stack, workload: Workload,
                   mapping: Optional[Sequence[int]] = None,
                   config: Optional[FlowSimConfig] = None, seed: int = 0,
                   drop_warmup: bool = False) -> SimulationResult:
    """Run one workload under one stack with the flow-level simulator."""
    return simulate_workload(topology, stack.routing, workload, selector=stack.selector,
                             transport=stack.transport, config=config, mapping=mapping,
                             seed=seed, drop_warmup=drop_warmup)


@dataclass
class StackCell:
    """One (stack, workload) cell of a batched simulation sweep."""

    stack: Stack
    workload: Workload
    mapping: Optional[Sequence[int]] = None
    config: Optional[FlowSimConfig] = None
    seed: int = 0
    drop_warmup: bool = False
    meta: Dict[str, object] = field(default_factory=dict)


def simulate_stack_many(topology: Topology,
                        cells: Sequence[StackCell]) -> List[SimulationResult]:
    """Simulate many (stack, workload) cells on one topology through the batched engine.

    Cells run in order (identical to the equivalent sequence of
    :func:`simulate_stack` calls, including shared selector RNG state when one stack
    appears in several cells), while the engine shares the topology link space and
    per-routing candidate pools across all of them — the
    :func:`repro.sim.engine.simulate_many` amortization the figure sweeps rely on.
    """
    sim_cells = [SimCell(topology=topology, routing=cell.stack.routing,
                         workload=cell.workload, selector=cell.stack.selector,
                         transport=cell.stack.transport, config=cell.config,
                         mapping=cell.mapping, seed=cell.seed,
                         drop_warmup=cell.drop_warmup)
                 for cell in cells]
    return simulate_many(sim_cells)


def grouped_baseline_rows(cells: Sequence[StackCell],
                          results: Sequence[SimulationResult], group: int,
                          row_fn, baseline_variant: str = "ecmp") -> List[Dict[str, object]]:
    """Rows for variant-comparison sweeps, each computed against its group baseline.

    ``cells``/``results`` are sliced into consecutive groups of ``group`` (one
    group per (topology, flow size) combination); within each group the cell whose
    ``meta["variant"]`` equals ``baseline_variant`` is the baseline, and
    ``row_fn(cell, result, baseline_result)`` produces one row per cell.  Shared by
    the Figure 14/17 four-stack comparisons so their grouping contract cannot
    diverge.
    """
    rows: List[Dict[str, object]] = []
    for start in range(0, len(cells), group):
        batch = list(zip(cells[start:start + group], results[start:start + group]))
        baseline = next(r for c, r in batch
                        if c.meta["variant"] == baseline_variant)
        rows.extend(row_fn(cell, result, baseline) for cell, result in batch)
    return rows


def tail_and_mean_throughput(result: SimulationResult) -> Tuple[float, float]:
    """(1% tail, mean) per-flow throughput in MiB/s — the units of Figures 2 and 11."""
    tput = result.throughputs() / (1024 * 1024)
    return float(np.percentile(tput, 1)), float(tput.mean())
