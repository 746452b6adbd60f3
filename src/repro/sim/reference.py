"""The scalar flow-level simulator: the trusted reference for :mod:`repro.sim.engine`.

This is the event-driven simulator the repository grew up with (previously the body of
:mod:`repro.sim.flowsim`), preserved as the behavioural specification — one Python
``_ActiveFlow`` object per active flow, per-flow loops for byte accounting, path
switching and completion search, and a fresh sparse max-min fair allocation every
event.  The vectorized engine in :mod:`repro.sim.engine` is pinned to it
record-for-record by ``tests/sim/test_engine_equivalence.py``, mirroring how
:mod:`repro.kernels.reference` preserves the scalar graph kernels.

Semantics worth knowing when reading either implementation:

* every arrival/completion event recomputes max-min fair rates over all active flows;
* path switches are evaluated after every event, *before* rates are recomputed, so
  switching decisions read the link utilisation of the previous allocation;
* the next completion is the active flow minimising ``now + remaining / max(rate,
  rate_epsilon)``, ties broken towards the earliest-arrived flow;
* fault epochs (``config.faults``, see :mod:`repro.sim.faults`) win time ties over
  arrivals and completions, count as events, and displace affected flows in
  ascending arrival order — re-placement through ``selector.initial_path`` over the
  surviving candidates, deterministic detours when none survive, stalls (rate zero,
  excluded from allocation) when the routers are disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.loadbalance import FlowletSelector, PathSelector
from repro.core.mapping import is_valid_mapping
from repro.core.transport import TransportModel, ndp_transport
from repro.sim.fairshare import max_min_fair_rates
from repro.sim.faults import bfs_distances_subgraph, detour_router_path
from repro.sim.metrics import FlowRecord, SimulationResult
from repro.sim.simconfig import FlowSimConfig
from repro.topologies.base import Topology
from repro.traffic.flows import Flow, Workload


@dataclass
class _ActiveFlow:
    flow: Flow
    source_router: int
    target_router: int
    candidate_paths: List[List[int]]          # router paths
    candidate_links: List[List[int]]          # same paths as link-index lists
    path_lengths: List[int]
    path_index: int
    remaining: float
    bytes_since_switch: float = 0.0
    num_switches: int = 0
    congestion_events: int = 0
    currently_congested: bool = False
    rate: float = 0.0
    on_detour: bool = False      # single synthetic candidate off the surviving graph
    stalled: bool = False        # routers disconnected: rate zero until a restore


class FlowLevelSimulator:
    """Flow-level simulation of one workload on one topology + routing scheme."""

    def __init__(self, topology: Topology, routing, selector: Optional[PathSelector] = None,
                 transport: Optional[TransportModel] = None,
                 config: Optional[FlowSimConfig] = None, seed: int = 0) -> None:
        """Set up link index space and caches for one (topology, routing, stack) triple."""
        self.topology = topology
        self.routing = routing
        self.selector = selector if selector is not None else FlowletSelector(seed=seed)
        self.transport = transport or ndp_transport()
        self.config = config or FlowSimConfig()
        if self.config.allocator != "full":
            raise ValueError(
                "the scalar reference simulator only implements the 'full' "
                f"allocator (got {self.config.allocator!r}); incremental and "
                "bottleneck refiltering are engine features "
                "(repro.sim.allocstate, repro.sim.bottleneck)")
        self.rng = np.random.default_rng(seed)

        # Link index space: directed router links, then per-endpoint injection and
        # ejection links (the NIC up/down links).
        self._directed = topology.directed_edges()
        self._edge_index: Dict[Tuple[int, int], int] = {e: i for i, e in enumerate(self._directed)}
        n_router_links = len(self._directed)
        n_endpoints = topology.num_endpoints
        self._inject_base = n_router_links
        self._eject_base = n_router_links + n_endpoints
        self.num_links = n_router_links + 2 * n_endpoints
        rate_bytes = self.config.link_rate_bps / 8.0
        self.capacities = np.full(self.num_links, rate_bytes)
        self._link_util = np.zeros(self.num_links)
        self._path_cache: Dict[Tuple[int, int], Tuple[List[List[int]], List[List[int]], List[int]]] = {}

    # ------------------------------------------------------------------ paths
    def _links_of_router_path(self, path: Sequence[int]) -> List[int]:
        return [self._edge_index[(u, v)] for u, v in zip(path, path[1:])]

    def _candidates(self, source_router: int, target_router: int
                    ) -> Tuple[List[List[int]], List[List[int]], List[int]]:
        key = (source_router, target_router)
        if key in self._path_cache:
            return self._path_cache[key]
        paths = self.routing.router_paths(source_router, target_router)
        if not paths:
            raise ValueError(f"routing scheme offers no path between routers {key}")
        links = [self._links_of_router_path(p) for p in paths]
        lengths = [max(1, len(p) - 1) for p in paths]
        value = (paths, links, lengths)
        self._path_cache[key] = value
        return value

    def _full_links(self, active: _ActiveFlow, path_index: int) -> List[int]:
        inj = self._inject_base + active.flow.source
        ej = self._eject_base + active.flow.destination
        return [inj] + active.candidate_links[path_index] + [ej]

    def _path_congestion(self, active: _ActiveFlow, path_index: int) -> float:
        links = active.candidate_links[path_index]
        if not links:
            return 0.0
        return float(max(self._link_util[link] for link in links))

    # -------------------------------------------------------------------- run
    def run(self, workload: Workload, mapping: Optional[Sequence[int]] = None) -> SimulationResult:
        """Simulate ``workload`` and return per-flow records.

        ``mapping`` optionally remaps endpoints (randomized workload mapping).
        """
        arrivals = workload.sorted_by_start()
        if mapping is not None:
            n = self.topology.num_endpoints
            if not is_valid_mapping(mapping, n):
                raise ValueError(f"mapping must be a permutation of the {n} endpoints")
            remapped = []
            for f in arrivals:
                remapped.append(Flow(start_time=f.start_time, source=int(mapping[f.source]),
                                     destination=int(mapping[f.destination]),
                                     size_bytes=f.size_bytes, flow_id=f.flow_id))
            arrivals = remapped
        records: List[FlowRecord] = []
        active: Dict[int, _ActiveFlow] = {}
        arrival_idx = 0
        now = 0.0
        events = 0
        line_rate = self.config.link_rate_bps / 8.0

        # ------------------------------------------------------------- faults
        fault_epochs = (self.config.faults.resolve(self.topology)
                        if self.config.faults is not None else [])
        faults_on = self.config.faults is not None
        fault_idx = 0
        fault_events = 0
        reroutes = 0
        stalls = 0
        failed_edges: set = set()        # undirected (u < v) failed edges
        failed_links: set = set()        # both directed link indices per failed edge
        fault_epoch_counter = [0]        # bumped whenever failed_edges changes
        survivor_cache: Dict[Tuple[int, int], Tuple[int, List[int]]] = {}
        detour_rows: Dict[Tuple[int, int], List[int]] = {}
        adjacency = self.topology.adjacency() if faults_on else None

        def survivors_of(rs: int, rt: int) -> List[int]:
            """Indices of the (rs, rt) candidates whose links all survive."""
            key = (rs, rt)
            cached = survivor_cache.get(key)
            if cached is not None and cached[0] == fault_epoch_counter[0]:
                return cached[1]
            links_lists = self._candidates(rs, rt)[1]
            surv = [i for i, ll in enumerate(links_lists)
                    if not any(link in failed_links for link in ll)]
            survivor_cache[key] = (fault_epoch_counter[0], surv)
            return surv

        def detour_for(rs: int, rt: int) -> Optional[List[int]]:
            """Minimal-index shortest router path rs -> rt on the surviving graph."""
            key = (fault_epoch_counter[0], rs)
            row = detour_rows.get(key)
            if row is None:
                row = bfs_distances_subgraph(adjacency, failed_edges, rs)
                detour_rows[key] = row
            return detour_router_path(adjacency, failed_edges, rs, rt, row)

        def place(state: _ActiveFlow) -> None:
            """Re-place one displaced flow: survivors, else detour, else stall."""
            nonlocal reroutes, stalls
            rs, rt = state.source_router, state.target_router
            old_links = state.candidate_links[state.path_index]
            surv = survivors_of(rs, rt)
            if surv:
                paths, links, lengths = self._candidates(rs, rt)
                pos = self.selector.initial_path(
                    state.flow.flow_id, len(surv),
                    path_lengths=[lengths[i] for i in surv])
                state.candidate_paths = paths
                state.candidate_links = links
                state.path_lengths = lengths
                state.path_index = surv[pos]
                state.on_detour = False
                state.stalled = False
            else:
                detour = detour_for(rs, rt)
                if detour is None:
                    # Disconnected: stall in place (candidate arrays untouched so a
                    # later restore can revive onto the original candidate set).
                    if not state.stalled:
                        state.stalled = True
                        state.rate = 0.0
                        stalls += 1
                    return
                hops = max(1, len(detour) - 1)
                # The selector is still consulted (one candidate) so the RNG stream
                # stays aligned with every other placement.
                self.selector.initial_path(state.flow.flow_id, 1, path_lengths=[hops])
                state.candidate_paths = [detour]
                state.candidate_links = [self._links_of_router_path(detour)]
                state.path_lengths = [hops]
                state.path_index = 0
                state.on_detour = True
                state.stalled = False
            new_links = state.candidate_links[state.path_index]
            if new_links != old_links:
                state.num_switches += 1
                state.bytes_since_switch = 0.0
                reroutes += 1

        def apply_fault_epoch(deltas: Sequence[Tuple[str, Tuple[int, int]]]) -> None:
            """Apply one epoch's fail/restore deltas and displace affected flows."""
            nonlocal fault_events
            fault_events += 1
            before = set(failed_edges)
            for action, edge in deltas:
                if action == "fail":
                    failed_edges.add(edge)
                else:
                    failed_edges.discard(edge)
            if failed_edges != before:
                fault_epoch_counter[0] += 1
                failed_links.clear()
                for u, v in failed_edges:
                    failed_links.add(self._edge_index[(u, v)])
                    failed_links.add(self._edge_index[(v, u)])
            # Displacement in ascending arrival order (dict insertion order).
            for state in active.values():
                if state.source_router == state.target_router:
                    continue      # synthetic empty-link candidate: immune
                if state.stalled:
                    needs = True  # always retry: a restore may have reconnected
                elif state.on_detour:
                    dead = any(link in failed_links
                               for link in state.candidate_links[0])
                    needs = dead or bool(survivors_of(state.source_router,
                                                      state.target_router))
                else:
                    needs = any(link in failed_links
                                for link in state.candidate_links[state.path_index])
                if needs:
                    place(state)

        def advance_to(new_time: float) -> None:
            """Transfer bytes on every active flow up to ``new_time``."""
            dt = new_time - now
            if dt <= 0:
                return
            for state in active.values():
                if np.isfinite(state.rate):
                    transferred = state.rate * dt
                else:
                    transferred = state.remaining
                transferred = min(transferred, state.remaining)
                state.remaining -= transferred
                state.bytes_since_switch += transferred

        def recompute_rates() -> None:
            """Max-min fair rates, link utilisation and congestion episodes."""
            states = [s for s in active.values() if not s.stalled]
            if not states:
                self._link_util[:] = 0.0
                return
            paths_links = [self._full_links(s, s.path_index) for s in states]
            rates = max_min_fair_rates(paths_links, self.capacities)
            self._link_util[:] = 0.0
            for state, links, rate in zip(states, paths_links, rates):
                state.rate = float(min(rate, line_rate))
                for link in links:
                    self._link_util[link] += state.rate / self.capacities[link]
            for state in states:
                # A congestion *episode* starts when the flow's rate drops below the
                # threshold (edge-triggered).  Episodes are only counted: _record
                # charges no latency for them.
                congested = state.rate < self.config.congestion_rate_fraction * line_rate
                if congested and not state.currently_congested:
                    state.congestion_events += 1
                state.currently_congested = congested

        def maybe_switch_paths() -> None:
            """Per-flow flowlet/congestion path switching via the selector."""
            for state in active.values():
                if state.stalled or len(state.candidate_paths) <= 1:
                    continue
                surv: Optional[List[int]] = None
                if faults_on and failed_links:
                    surv = survivors_of(state.source_router, state.target_router)
                    if len(surv) <= 1:
                        continue
                congested = self._path_congestion(state, state.path_index) >= 1.0
                if state.bytes_since_switch < self.config.flowlet_bytes and not congested:
                    continue
                if surv is None:
                    new_index = self.selector.next_path(
                        state.flow.flow_id, state.path_index, len(state.candidate_paths),
                        congestion=lambda i, s=state: self._path_congestion(s, i),
                        path_lengths=state.path_lengths)
                else:
                    pos = surv.index(state.path_index)
                    new_pos = self.selector.next_path(
                        state.flow.flow_id, pos, len(surv),
                        congestion=lambda i, s=state, sv=surv:
                            self._path_congestion(s, sv[i]),
                        path_lengths=[state.path_lengths[i] for i in surv])
                    new_index = surv[new_pos]
                state.bytes_since_switch = 0.0
                if new_index != state.path_index:
                    state.path_index = new_index
                    state.num_switches += 1

        def next_completion() -> Tuple[float, Optional[int]]:
            """(time, flow id) of the earliest completion among active flows."""
            best_time, best_flow = np.inf, None
            for fid, state in active.items():
                rate = max(state.rate, self.config.rate_epsilon)
                t = now + state.remaining / rate
                if t < best_time:
                    best_time, best_flow = t, fid
            return best_time, best_flow

        # Every event admits one arrival instant, completes one flow or applies one
        # fault epoch, so the loop ends.  A fault epoch after the last completion is
        # never an event.
        while arrival_idx < len(arrivals) or active:
            events += 1
            completion_time, completing = next_completion()
            next_arrival = arrivals[arrival_idx].start_time if arrival_idx < len(arrivals) else np.inf
            next_fault = fault_epochs[fault_idx][0] if fault_idx < len(fault_epochs) else np.inf
            if next_fault <= next_arrival and next_fault <= completion_time:
                # Fault epochs win time ties over arrivals and completions.
                advance_to(next_fault)
                now = next_fault
                apply_fault_epoch(fault_epochs[fault_idx][1])
                fault_idx += 1
            elif next_arrival <= completion_time:
                # process all arrivals at this timestamp
                advance_to(next_arrival)
                now = next_arrival
                while arrival_idx < len(arrivals) and arrivals[arrival_idx].start_time <= now:
                    flow = arrivals[arrival_idx]
                    arrival_idx += 1
                    rs = self.topology.router_of_endpoint(flow.source)
                    rt = self.topology.router_of_endpoint(flow.destination)
                    if rs == rt:
                        paths, links, lengths = [[rs]], [[]], [1]
                    else:
                        paths, links, lengths = self._candidates(rs, rt)
                    if faults_on and failed_links and rs != rt:
                        surv = survivors_of(rs, rt)
                        if surv:
                            pos = self.selector.initial_path(
                                flow.flow_id, len(surv),
                                path_lengths=[lengths[i] for i in surv])
                            state = _ActiveFlow(
                                flow=flow, source_router=rs, target_router=rt,
                                candidate_paths=paths, candidate_links=links,
                                path_lengths=lengths, path_index=surv[pos],
                                remaining=flow.size_bytes)
                        else:
                            detour = detour_for(rs, rt)
                            if detour is not None:
                                hops = max(1, len(detour) - 1)
                                self.selector.initial_path(flow.flow_id, 1,
                                                           path_lengths=[hops])
                                state = _ActiveFlow(
                                    flow=flow, source_router=rs, target_router=rt,
                                    candidate_paths=[detour],
                                    candidate_links=[self._links_of_router_path(detour)],
                                    path_lengths=[hops], path_index=0,
                                    remaining=flow.size_bytes, on_detour=True)
                            else:
                                # Stalled on arrival: no selector draw is consumed.
                                stalls += 1
                                state = _ActiveFlow(
                                    flow=flow, source_router=rs, target_router=rt,
                                    candidate_paths=paths, candidate_links=links,
                                    path_lengths=lengths, path_index=0,
                                    remaining=flow.size_bytes, stalled=True)
                    else:
                        index = self.selector.initial_path(flow.flow_id, len(paths),
                                                           path_lengths=lengths)
                        state = _ActiveFlow(flow=flow, source_router=rs, target_router=rt,
                                            candidate_paths=paths, candidate_links=links,
                                            path_lengths=lengths, path_index=index,
                                            remaining=flow.size_bytes)
                    active[flow.flow_id] = state
            else:
                if completing is None:
                    break
                advance_to(completion_time)
                now = completion_time
                state = active.pop(completing)
                records.append(self._record(state, now))
            maybe_switch_paths()
            recompute_rates()

        records.sort(key=lambda r: r.flow_id)
        meta = {"topology": self.topology.name,
                "routing": getattr(self.routing, "name", type(self.routing).__name__),
                "transport": self.transport.name,
                "events": events,
                "engine": "reference"}
        if faults_on:
            meta["fault_events"] = fault_events
            meta["reroutes"] = reroutes
            meta["stalls"] = stalls
        return SimulationResult(records=records, name=workload.name, meta=meta)

    # ---------------------------------------------------------------- records
    def _record(self, state: _ActiveFlow, completion_time: float) -> FlowRecord:
        hops = state.path_lengths[state.path_index]
        rtt = 2 * (hops * self.config.per_hop_latency + self.config.host_latency)
        startup = self.transport.startup_delay(state.flow.size_bytes, rtt,
                                               self.config.link_rate_bps)
        # Congestion episodes are reported per flow but not charged as extra latency:
        # bandwidth contention is already resolved by the max-min fair sharing, and a
        # per-episode RTT surcharge would double-count it (and make results depend on
        # how often rates cross the congestion threshold rather than on routing).
        total_completion = completion_time + rtt / 2 + startup
        return FlowRecord(
            flow_id=state.flow.flow_id,
            source=state.flow.source,
            destination=state.flow.destination,
            size_bytes=state.flow.size_bytes,
            start_time=state.flow.start_time,
            completion_time=total_completion,
            path_hops=hops,
            num_path_switches=state.num_switches,
            congestion_events=state.congestion_events,
        )
