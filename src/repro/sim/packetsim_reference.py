"""The scalar packet-level simulator: the trusted reference for :mod:`repro.sim.packetengine`.

This is the original per-event packet loop (previously the body of
:mod:`repro.sim.packetsim`), preserved verbatim as the behavioural specification —
one Python ``_Packet`` object per packet in flight, a string-keyed event heap, and
per-flow dataclass state.  The vectorized engine in
:mod:`repro.sim.packetengine` is pinned to it record-for-record by
``tests/sim/test_packetengine_equivalence.py``, mirroring how
:mod:`repro.sim.reference` preserves the scalar flow-level loop.

The simulator complements the flow-level model by exercising the *mechanisms* of the
purified transport (paper §III-C) directly, at packet granularity, on small networks:

* output-queued links with bounded queues and store-and-forward serialisation;
* **payload trimming**: when a queue is full, the packet's payload is dropped but its
  header is forwarded (in a priority queue), so the receiver always learns about the
  packet and can request a retransmission — no timeouts needed;
* **receiver-driven retransmits**: trimmed packets are NACKed and retransmitted with
  priority; for non-header-preserving transports (plain TCP) a full drop triggers a
  retransmission timeout instead;
* a fixed sender window (the paper uses an 8-packet congestion window with 9 KB jumbo
  frames) with new packets released by ACKs;
* per-flowlet path selection over the candidate paths of the routing scheme, with a
  layer change requested when the receiver observes trimmed packets (FatPaths
  adaptivity).

The intent is behavioural fidelity on tens of endpoints (queueing, trimming,
retransmission, path switching), not performance at datacenter scale — that is the
flow-level simulator's job.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.loadbalance import FlowletSelector, PathSelector
from repro.core.transport import TransportModel, ndp_transport
from repro.sim.metrics import FlowRecord, SimulationResult
from repro.sim.simconfig import PacketSimConfig
from repro.topologies.base import Topology
from repro.traffic.flows import Workload


@dataclass
class _Packet:
    flow_id: int
    seq: int
    size: int
    path_links: Tuple[int, ...]
    hop: int = 0
    trimmed: bool = False
    retransmit: bool = False


@dataclass
class _FlowState:
    flow_id: int
    source: int
    destination: int
    total_packets: int
    size_bytes: float
    start_time: float
    candidate_paths: List[List[int]]
    candidate_links: List[List[int]]
    path_lengths: List[int]
    path_index: int
    next_seq: int = 0
    in_flight: int = 0
    acked: set = field(default_factory=set)
    packets_in_flowlet: int = 0
    num_switches: int = 0
    trims: int = 0
    drops: int = 0
    completion_time: Optional[float] = None


class _Link:
    """A directed link with a bounded output queue and a priority lane for headers."""

    __slots__ = ("rate", "latency", "queue_limit", "next_free", "queued", "trims", "drops")

    def __init__(self, rate_bytes: float, latency: float, queue_limit: int) -> None:
        self.rate = rate_bytes
        self.latency = latency
        self.queue_limit = queue_limit
        self.next_free = 0.0
        self.queued = 0
        self.trims = 0
        self.drops = 0

    def admit(self, now: float, priority: bool) -> bool:
        """True if a packet may be enqueued now (priority traffic bypasses the limit)."""
        return priority or self.queued < self.queue_limit

    def serialize(self, now: float, size_bytes: int) -> Tuple[float, float]:
        """Reserve the link: returns (departure time, arrival time at the other end)."""
        start = max(now, self.next_free)
        departure = start + size_bytes / self.rate
        self.next_free = departure
        return departure, departure + self.latency


class PacketLevelSimulator:
    """Packet-level simulation of one workload on one topology + routing scheme."""

    def __init__(self, topology: Topology, routing, selector: Optional[PathSelector] = None,
                 transport: Optional[TransportModel] = None,
                 config: Optional[PacketSimConfig] = None, seed: int = 0) -> None:
        self.topology = topology
        self.routing = routing
        self.selector = selector if selector is not None else FlowletSelector(seed=seed)
        self.transport = transport or ndp_transport()
        self.config = config or PacketSimConfig()
        self.rng = np.random.default_rng(seed)

        self._directed = topology.directed_edges()
        self._edge_index: Dict[Tuple[int, int], int] = {e: i for i, e in enumerate(self._directed)}
        n_router_links = len(self._directed)
        n_endpoints = topology.num_endpoints
        self._inject_base = n_router_links
        self._eject_base = n_router_links + n_endpoints
        rate_bytes = self.config.link_rate_bps / 8.0
        self.links: List[_Link] = [
            _Link(rate_bytes, self.config.per_hop_latency, self.config.queue_packets)
            for _ in range(n_router_links + 2 * n_endpoints)
        ]
        self._path_cache: Dict[Tuple[int, int], Tuple[List[List[int]], List[List[int]], List[int]]] = {}
        self._counter = itertools.count()

    # ------------------------------------------------------------------ paths
    def _candidates(self, source_router: int, target_router: int):
        key = (source_router, target_router)
        if key not in self._path_cache:
            paths = self.routing.router_paths(source_router, target_router)
            if not paths:
                raise ValueError(f"no path between routers {key}")
            links = [[self._edge_index[(u, v)] for u, v in zip(p, p[1:])] for p in paths]
            lengths = [max(1, len(p) - 1) for p in paths]
            self._path_cache[key] = (paths, links, lengths)
        return self._path_cache[key]

    def _flow_path_links(self, state: _FlowState, index: int) -> Tuple[int, ...]:
        inj = self._inject_base + state.source
        ej = self._eject_base + state.destination
        return tuple([inj] + state.candidate_links[index] + [ej])

    # -------------------------------------------------------------------- run
    def run(self, workload: Workload) -> SimulationResult:
        """Simulate ``workload`` packet by packet and return per-flow records."""
        cfg = self.config
        events: List[Tuple[float, int, str, object]] = []

        def push(time: float, kind: str, payload: object) -> None:
            """Enqueue one event, tie-broken by insertion order."""
            heapq.heappush(events, (time, next(self._counter), kind, payload))

        flows: Dict[int, _FlowState] = {}
        for flow in workload:
            rs = self.topology.router_of_endpoint(flow.source)
            rt = self.topology.router_of_endpoint(flow.destination)
            if rs == rt:
                paths, links, lengths = [[rs]], [[]], [1]
            else:
                paths, links, lengths = self._candidates(rs, rt)
            total_packets = max(1, int(np.ceil(flow.size_bytes / cfg.packet_bytes)))
            index = self.selector.initial_path(flow.flow_id, len(paths), path_lengths=lengths)
            flows[flow.flow_id] = _FlowState(
                flow_id=flow.flow_id, source=flow.source, destination=flow.destination,
                total_packets=total_packets, size_bytes=flow.size_bytes,
                start_time=flow.start_time, candidate_paths=paths, candidate_links=links,
                path_lengths=lengths, path_index=index)
            push(flow.start_time, "flow_start", flow.flow_id)

        processed = 0
        while events:
            if processed >= cfg.max_events:
                raise cfg.event_budget_error()
            processed += 1
            now, _, kind, payload = heapq.heappop(events)
            if kind == "flow_start":
                state = flows[payload]
                for _ in range(min(cfg.window_packets, state.total_packets)):
                    self._send_next(now, state, push)
            elif kind == "hop":
                self._handle_hop(now, payload, flows, push)
            elif kind == "delivered":
                self._handle_delivery(now, payload, flows, push)
            elif kind == "ack":
                self._handle_ack(now, payload, flows, push)
            elif kind == "nack":
                self._handle_nack(now, payload, flows, push)
            elif kind == "timeout":
                self._handle_timeout(now, payload, flows, push)
            elif kind == "dequeue":
                self._handle_dequeue(payload)

        # A flow whose tail-dropped retransmission is never resent (timeouts are
        # armed for first transmissions only) never completes; its record takes
        # the last event's time and ``unfinished_flows`` counts it.
        records = []
        for flow in workload:
            state = flows[flow.flow_id]
            completion = state.completion_time if state.completion_time is not None else now
            records.append(FlowRecord(
                flow_id=state.flow_id, source=state.source, destination=state.destination,
                size_bytes=state.size_bytes, start_time=state.start_time,
                completion_time=completion,
                path_hops=state.path_lengths[state.path_index],
                num_path_switches=state.num_switches,
                congestion_events=state.trims + state.drops))
        return SimulationResult(records=records, name=workload.name,
                                meta={"topology": self.topology.name,
                                      "transport": self.transport.name,
                                      "events": processed,
                                      "total_trims": sum(l.trims for l in self.links),
                                      "total_drops": sum(l.drops for l in self.links),
                                      "unfinished_flows": sum(
                                          flows[flow.flow_id].completion_time is None
                                          for flow in workload)})

    # ----------------------------------------------------------------- sending
    def _send_next(self, now: float, state: _FlowState, push, seq: Optional[int] = None,
                   retransmit: bool = False) -> None:
        if seq is None:
            if state.next_seq >= state.total_packets:
                return
            seq = state.next_seq
            state.next_seq += 1
        # flowlet accounting and path selection
        state.packets_in_flowlet += 1
        if state.packets_in_flowlet > self.config.flowlet_packets and len(state.candidate_paths) > 1:
            new_index = self.selector.next_path(state.flow_id, state.path_index,
                                                len(state.candidate_paths),
                                                path_lengths=state.path_lengths)
            if new_index != state.path_index:
                state.path_index = new_index
                state.num_switches += 1
            state.packets_in_flowlet = 0
        packet = _Packet(flow_id=state.flow_id, seq=seq, size=self.config.packet_bytes,
                         path_links=self._flow_path_links(state, state.path_index),
                         retransmit=retransmit)
        state.in_flight += 1
        push(now + self.config.host_latency, "hop", packet)
        if not self.transport.header_preserving and not retransmit:
            # schedule a retransmission timeout for lossy transports
            push(now + self.config.rto, "timeout", (state.flow_id, seq))

    # ------------------------------------------------------------------- hops
    def _handle_hop(self, now: float, packet: _Packet, flows: Dict[int, _FlowState], push) -> None:
        state = flows[packet.flow_id]
        if packet.hop >= len(packet.path_links):
            push(now, "delivered", packet)
            return
        link = self.links[packet.path_links[packet.hop]]
        priority = packet.trimmed or (packet.retransmit and self.transport.header_preserving)
        if not link.admit(now, priority):
            if self.transport.header_preserving:
                # trim the payload; the header continues with priority
                link.trims += 1
                state.trims += 1
                packet.trimmed = True
                packet.size = self.config.header_bytes
            else:
                # tail drop: the packet is lost, the sender's RTO will recover it
                link.drops += 1
                state.drops += 1
                state.in_flight = max(0, state.in_flight - 1)
                return
        size = self.config.header_bytes if packet.trimmed else packet.size
        link.queued += 1
        departure, arrival = link.serialize(now, size)
        packet.hop += 1
        # queue occupancy decreases when serialization finishes
        push(departure, "dequeue", packet.path_links[packet.hop - 1])
        push(arrival, "hop", packet)

    def _handle_delivery(self, now: float, packet: _Packet, flows: Dict[int, _FlowState], push) -> None:
        rtt_back = (len(packet.path_links) * self.config.per_hop_latency
                    + self.config.host_latency)
        if packet.trimmed:
            # receiver learned of the packet but not its payload: NACK (and ask for a
            # different layer — handled at retransmission time by the selector)
            push(now + rtt_back, "nack", (packet.flow_id, packet.seq))
        else:
            push(now + rtt_back, "ack", (packet.flow_id, packet.seq, now))

    def _handle_ack(self, now: float, payload, flows: Dict[int, _FlowState], push) -> None:
        flow_id, seq, delivered_at = payload
        state = flows[flow_id]
        if seq in state.acked:
            return
        state.acked.add(seq)
        state.in_flight = max(0, state.in_flight - 1)
        if len(state.acked) >= state.total_packets and state.completion_time is None:
            state.completion_time = delivered_at + self.config.host_latency
            return
        if state.next_seq < state.total_packets and state.in_flight < self.config.window_packets:
            self._send_next(now, state, push)

    def _handle_nack(self, now: float, payload, flows: Dict[int, _FlowState], push) -> None:
        flow_id, seq = payload
        state = flows[flow_id]
        if seq in state.acked:
            return
        state.in_flight = max(0, state.in_flight - 1)
        # FatPaths adaptivity: a trimmed packet signals congestion on the current layer;
        # the receiver requests a layer change for the retransmission.
        if len(state.candidate_paths) > 1:
            new_index = self.selector.next_path(
                state.flow_id, state.path_index, len(state.candidate_paths),
                congestion=lambda i: 1.0 if i == state.path_index else 0.0,
                path_lengths=state.path_lengths)
            if new_index != state.path_index:
                state.path_index = new_index
                state.num_switches += 1
                state.packets_in_flowlet = 0
        self._send_next(now, state, push, seq=seq, retransmit=True)

    def _handle_timeout(self, now: float, payload, flows: Dict[int, _FlowState], push) -> None:
        flow_id, seq = payload
        state = flows[flow_id]
        if seq in state.acked or state.completion_time is not None:
            return
        # conservatively retransmit (duplicate deliveries are filtered by `acked`)
        self._send_next(now, state, push, seq=seq, retransmit=True)

    # -------------------------------------------------------------- dispatcher
    def _handle_dequeue(self, link_index: int) -> None:
        link = self.links[link_index]
        link.queued = max(0, link.queued - 1)
