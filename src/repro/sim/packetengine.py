"""The vectorized packet-level engine: SoA state over the flow engine's substrate.

:class:`PacketEngine` reimplements the scalar packet simulator
(:mod:`repro.sim.packetsim_reference`, the pinned behavioural spec) on the
architecture of :mod:`repro.sim.engine`:

* **Structure-of-arrays state.**  Packets, flows and links live in parallel arrays
  indexed by slot — no per-packet ``_Packet`` dataclass, no per-flow dict lookups,
  no per-link Python objects.  Packet slots carry (flow, seq, hop, trimmed,
  retransmit, resolved path, precomputed return latency); links carry
  (next_free, queued, trims, drops) in four flat lists.
* **Shared link space and pooled candidates.**  The directed-link index space comes
  from :func:`repro.sim.engine.link_space_for` (memoised on the topology's
  ``GraphKernels`` entry via ``aux``) and candidate router paths from the pooled
  :func:`repro.sim.engine.candidate_bank_for` — both shared with the flow engine
  and across runs, so repeated simulator construction stops re-resolving routing.
* **Batched event extraction.**  Events are tuples ``(time, counter, kind, slot)``
  with integer kinds dispatched inline (no string compares, no per-event method
  calls).  Three event classes are *monotone* in (time, counter) — sender
  hops fire at ``now + host``, deliveries at ``now``, timeouts at ``now + rto``
  with constant offsets over a nondecreasing clock — so they live in O(1) FIFO
  deques instead of the heap, merged with the remaining heap events (flow starts,
  per-link hop arrivals, ACK/NACKs) by a head comparison per pop.  Dequeue events,
  which only ever decrement a link's queue occupancy, are not scheduled at all:
  each link keeps a FIFO of (time, counter) drains that is applied *lazily* right
  before the next admission check reads that link's occupancy, and flushed in bulk
  at the end of the run.
* **The event budget is a guard.**  A run that needs more than ``max_events``
  events raises the reference's ``RuntimeError``.  The reference counts pops,
  dequeues included, which the lazy drains never surface; the loop compares the
  push counter instead, and both checks fire on the same runs because every
  pushed event is eventually popped.
* **Selector calls through** :meth:`~repro.core.loadbalance.PathSelector.next_path_batch`
  with exact per-flow RNG replay: flowlet-boundary switches pass an all-zero load
  row (≡ the reference's ``congestion=None``) and NACK-triggered layer changes a
  one-hot row at the current path — the batched draws consume the selector's PCG
  stream exactly as the reference's scalar ``next_path`` calls do (the contract
  ``tests/core/test_loadbalance_transport_mapping.py`` pins).

What is pinned vs allowed to differ: event ordering (time, insertion counter),
selector RNG consumption, every float expression (serialisation ``size / rate``,
``max(now, next_free)``, return latencies) and therefore all records, meta counters
and per-link end states are **bit-identical** to the reference
(``tests/sim/test_packetengine_equivalence.py``).  Only the internal representation
differs — there is deliberately no behavioural knob on this class that the
reference lacks.

The optional ``trace`` attribute (a list, or ``None``) records every link
serialisation as ``(link_index, departure_time)`` — the equivalence suite patches
the reference's ``_Link.serialize`` to collect the same trace and compares them
element-for-element.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.loadbalance import FlowletSelector, PathSelector
from repro.core.transport import TransportModel, ndp_transport
from repro.sim.engine import candidate_bank_for, link_space_for
from repro.sim.metrics import FlowRecord, SimulationResult
from repro.sim.simconfig import PacketSimConfig
from repro.topologies.base import Topology
from repro.traffic.flows import Workload

# Integer event kinds (entries are (time, counter, kind, slot); the unique
# counter tie-breaks equal times, so kinds are never compared).
_START, _HOP, _DELIVERED, _ACK, _NACK, _TIMEOUT = range(6)

#: Head sentinel for the fast loop's queue merge: later than any real event.
_NEVER = (float("inf"), -1, 0, 0, 0)


class PacketEngine:
    """Vectorized packet-level simulation of one workload (reference-identical)."""

    def __init__(self, topology: Topology, routing, selector: Optional[PathSelector] = None,
                 transport: Optional[TransportModel] = None,
                 config: Optional[PacketSimConfig] = None, seed: int = 0) -> None:
        """Mirror the reference constructor on the shared link space / candidate bank."""
        self.topology = topology
        self.routing = routing
        self.selector = selector if selector is not None else FlowletSelector(seed=seed)
        self.transport = transport or ndp_transport()
        self.config = config or PacketSimConfig()
        self.links = link_space_for(topology)
        self.bank = candidate_bank_for(routing, self.links)
        #: Optional serialisation trace hook: set to a list to record
        #: ``(link_index, departure_time)`` per serialisation.
        self.trace: Optional[List[Tuple[int, float]]] = None
        #: Post-run invariant counters (see :meth:`run`), for the property tests.
        self.last_stats: Optional[dict] = None
        #: Post-run per-link end state (next_free/queued/trims/drops lists).
        self.final_link_state: Optional[dict] = None
        # (n_arr, lengths_row, n) selector batch rows per candidate entry
        self._sel_rows: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}

    # ------------------------------------------------------------------ setup
    def _setup(self, workload: Workload):
        """SoA setup: flow state, start events and the resolved candidate pool."""
        cfg = self.config
        topology = self.topology
        routing = self.routing
        bank = self.bank
        selector = self.selector

        flows_list = list(workload)
        nflows = len(flows_list)
        if nflows:
            sizes = np.fromiter((f.size_bytes for f in flows_list), dtype=np.float64,
                                count=nflows)
            totals = np.maximum(1, np.ceil(sizes / cfg.packet_bytes)).astype(np.int64)
        else:
            totals = np.zeros(0, dtype=np.int64)

        f_entry = []                       # pooled CandidateEntry per flow
        f_path = [0] * nflows              # current candidate index
        f_idarr: List[np.ndarray] = []     # single-row flow-id array for batch calls
        events: List[Tuple[float, int, int, int]] = []
        counter = 0
        for fs, flow in enumerate(flows_list):
            rs = topology.router_of_endpoint(flow.source)
            rt = topology.router_of_endpoint(flow.destination)
            entry = bank.entry(routing, rs, rt)
            f_entry.append(entry)
            f_path[fs] = selector.initial_path(flow.flow_id, entry.num_candidates,
                                               path_lengths=entry.lengths)
            f_idarr.append(np.array([flow.flow_id], dtype=np.int64))
            heapq.heappush(events, (flow.start_time, counter, _START, fs))
            counter += 1
        # bind the candidate pool only now: resolving entries above may have grown
        # (reallocated) the bank's backing array
        pool = bank.pool
        return flows_list, totals, f_entry, f_path, f_idarr, events, counter, pool

    # -------------------------------------------------------------------- run
    def run(self, workload: Workload) -> SimulationResult:
        """Simulate ``workload`` packet by packet; records match the scalar reference.

        The deque-merged event loop keeps monotone sources in FIFOs and applies
        dequeues lazily.  It raises ``RuntimeError`` as soon as the push counter
        crosses ``max_events``, on exactly the runs the reference raises on.

        Besides the :class:`~repro.sim.metrics.SimulationResult`, the run leaves
        ``self.final_link_state`` (per-link ``next_free``/``queued``/``trims``/
        ``drops`` lists) and ``self.last_stats``: invariant counters the scalar
        loop never tracked — the high-water queue occupancy over non-priority
        admissions (``max_queued``), the number of priority enqueues past a full
        queue (``priority_bypass``) and the per-flow in-flight high-water marks
        (``max_in_flight``).
        """
        cfg = self.config
        selector = self.selector
        space = self.links
        topology = self.topology

        header_preserving = self.transport.header_preserving
        rate_bytes = cfg.link_rate_bps / 8.0
        full_ser = cfg.packet_bytes / rate_bytes
        hdr_ser = cfg.header_bytes / rate_bytes
        per_hop = cfg.per_hop_latency
        host = cfg.host_latency
        rto = cfg.rto
        window = cfg.window_packets
        queue_limit = cfg.queue_packets
        flowlet_packets = cfg.flowlet_packets
        inject_base = space.inject_base
        eject_base = space.eject_base
        max_events = cfg.max_events

        num_links = space.num_links
        link_free = [0.0] * num_links
        link_queued = [0] * num_links
        link_trims = [0] * num_links
        link_drops = [0] * num_links
        # pending queue drains per link: (time, counter) FIFOs applied lazily
        link_deq: List[deque] = [deque() for _ in range(num_links)]

        (flows_list, totals, f_entry, f_path, f_idarr,
         events, counter, pool) = self._setup(workload)
        # bound after set-up, like the pool: resolving entries may grow the table
        cand_start, cand_len = self.bank.cand_start, self.bank.cand_len
        nflows = len(flows_list)
        f_total: List[int] = totals.tolist()
        f_next = [0] * nflows
        f_inflight = [0] * nflows
        f_maxin = [0] * nflows
        f_acked: List[set] = [set() for _ in range(nflows)]
        f_flowlet = [0] * nflows
        f_switches = [0] * nflows
        f_trims = [0] * nflows
        f_drops = [0] * nflows
        f_done: List[Optional[float]] = [None] * nflows
        f_pcache: List[dict] = [{} for _ in range(nflows)]

        # packet state: the immutable fields ride in one tuple per slot
        # (flow, seq, retransmit, path, path_len, return_latency); only
        # hop / trimmed / delivery-time mutate per slot
        p_pkt: List[Tuple[int, int, bool, List[int], int, float]] = []
        p_hop: List[int] = []
        p_trim: List[bool] = []
        p_deliver: List[float] = []

        stat_maxq = 0
        stat_bypass = 0

        # resolve the selector batch rows per flow up front (one list index per
        # re-pick), and share the load/current argument arrays globally: an
        # all-zero row (≡ the reference's ``congestion=None``) and a one-hot row
        # depend only on (row width, congested index), never on the entry, so the
        # hot path performs no numpy writes at all
        sel_rows = self._sel_rows
        f_rows = []
        zero_tab: Dict[int, np.ndarray] = {}
        hot_tab: Dict[int, List[np.ndarray]] = {}
        max_n = 1
        for entry in f_entry:
            rows = sel_rows.get(id(entry))
            if rows is None:
                n = entry.num_candidates
                rows = (np.array([n], dtype=np.int64),
                        np.asarray([entry.lengths], dtype=np.float64), n)
                sel_rows[id(entry)] = rows
            f_rows.append(rows)
            n = rows[2]
            if n > max_n:
                max_n = n
            if n not in zero_tab:
                zero_tab[n] = np.zeros((1, n))
                hots = []
                for k in range(n):
                    row = np.zeros((1, n))
                    row[0, k] = 1.0
                    hots.append(row)
                hot_tab[n] = hots
        cur_tab = [np.array([k], dtype=np.int64) for k in range(max_n)]
        npb = selector.next_path_batch

        # monotone event sources: appended at nondecreasing (time, counter), so a
        # FIFO deque keeps them sorted without heap discipline.  Heap/send/deliver
        # entries are 4-tuples (time, counter, kind, slot); timeouts keep a
        # 5th element (the sequence number) but are dispatched straight off their
        # own source, so the shared unpack below never sees them.
        send_q: deque = deque()      # _HOP at now + host
        deliv_q: deque = deque()     # _DELIVERED at now
        to_q: deque = deque()        # _TIMEOUT at now + rto

        heappush = heapq.heappush
        heappop = heapq.heappop

        def resolve_path(fs: int, cand: int) -> Tuple[List[int], int, float]:
            """Resolve + cache the full link path, its length and return latency."""
            c = f_entry[fs].first + cand
            s = int(cand_start[c])
            length = int(cand_len[c])
            flow = flows_list[fs]
            path = ([inject_base + flow.source]
                    + pool[s:s + length].tolist()
                    + [eject_base + flow.destination])
            plen = len(path)
            got = (path, plen, len(path) * per_hop + host)
            f_pcache[fs][cand] = got
            return got

        def send(now: float, fs: int, seq: int, retransmit: bool) -> None:
            """Transmit one packet (flowlet accounting first, as in the reference)."""
            nonlocal counter
            f_flowlet[fs] += 1
            entry = f_entry[fs]
            if f_flowlet[fs] > flowlet_packets and entry.num_candidates > 1:
                rows = f_rows[fs]
                cur = f_path[fs]
                new = int(npb(f_idarr[fs], cur_tab[cur], rows[0],
                              zero_tab[rows[2]], rows[1])[0])
                if new != cur:
                    f_path[fs] = new
                    f_switches[fs] += 1
                f_flowlet[fs] = 0
            cand = f_path[fs]
            got = f_pcache[fs].get(cand)
            if got is None:
                got = resolve_path(fs, cand)
            slot = len(p_pkt)
            p_pkt.append((fs, seq, retransmit, got[0], got[1], got[2]))
            p_hop.append(0)
            p_trim.append(False)
            p_deliver.append(0.0)
            infl = f_inflight[fs] + 1
            f_inflight[fs] = infl
            if infl > f_maxin[fs]:
                f_maxin[fs] = infl
            send_q.append((now + host, counter, _HOP, slot))
            counter += 1
            if not header_preserving and not retransmit:
                to_q.append((now + rto, counter, _TIMEOUT, fs, seq))
                counter += 1

        def send_new(now: float, fs: int) -> None:
            """Transmit the next unsent sequence number, if any remain."""
            seq = f_next[fs]
            if seq >= f_total[fs]:
                return
            f_next[fs] = seq + 1
            send(now, fs, seq, False)

        # ------------------------------------------------------ the event loop
        trace = self.trace
        now = 0.0
        while True:
            # merge: smallest (time, counter) head among the heap + three deques
            ev = events[0] if events else _NEVER
            src = 0
            if send_q:
                head = send_q[0]
                if head < ev:
                    ev = head
                    src = 1
            if deliv_q:
                head = deliv_q[0]
                if head < ev:
                    ev = head
                    src = 2
            if to_q:
                head = to_q[0]
                if head < ev:
                    ev = head
                    src = 3
            if src == 0:
                # every event cycle passes through the heap or the timeout FIFO,
                # so checking the push budget on just these two sources catches
                # every over-budget run (at termination at the latest) without a
                # per-pop compare
                if counter > max_events:
                    raise cfg.event_budget_error()
                if not events:
                    break
                heappop(events)
            elif src == 1:
                send_q.popleft()
            elif src == 2:
                # delivery FIFO entries are always _DELIVERED: dispatch inline
                deliv_q.popleft()
                now = ev[0]
                a = ev[3]
                if p_trim[a]:
                    # receiver learned of the packet but not its payload: NACK
                    heappush(events, (now + p_pkt[a][5], counter, _NACK, a))
                else:
                    p_deliver[a] = now
                    heappush(events, (now + p_pkt[a][5], counter, _ACK, a))
                counter += 1
                continue
            else:
                if counter > max_events:
                    raise cfg.event_budget_error()
                to_q.popleft()
                now, cnt, kind, fs, seq = ev
                if seq in f_acked[fs] or f_done[fs] is not None:
                    continue
                send(now, fs, seq, True)
                continue
            now, cnt, kind, a = ev
            if kind == _HOP:
                hop = p_hop[a]
                pkt = p_pkt[a]
                if hop >= pkt[4]:
                    deliv_q.append((now, counter, _DELIVERED, a))
                    counter += 1
                    continue
                li = pkt[3][hop]
                # lazily apply the drains the reference would have popped by
                # now; decrements never outnumber prior enqueues, so no floor
                ld = link_deq[li]
                queued = link_queued[li]
                if ld:
                    head = ld[0]
                    while head[0] < now or (head[0] == now and head[1] < cnt):
                        ld.popleft()
                        queued -= 1
                        if not ld:
                            break
                        head = ld[0]
                    link_queued[li] = queued
                trimmed = p_trim[a]
                if trimmed or (pkt[2] and header_preserving):
                    if queued >= queue_limit:
                        stat_bypass += 1
                elif queued >= queue_limit:
                    fs = pkt[0]
                    if header_preserving:
                        # trim the payload; the header continues with priority
                        link_trims[li] += 1
                        f_trims[fs] += 1
                        p_trim[a] = True
                        trimmed = True
                    else:
                        # tail drop: the packet is lost, the sender's RTO recovers it
                        link_drops[li] += 1
                        f_drops[fs] += 1
                        infl = f_inflight[fs]
                        f_inflight[fs] = infl - 1 if infl > 0 else 0
                        continue
                else:
                    queued_now = queued + 1
                    if queued_now > stat_maxq:
                        stat_maxq = queued_now
                link_queued[li] = queued + 1
                nf = link_free[li]
                start = now if now > nf else nf
                departure = start + (hdr_ser if trimmed else full_ser)
                link_free[li] = departure
                if trace is not None:
                    trace.append((li, departure))
                p_hop[a] = hop + 1
                # queue occupancy decreases when serialization finishes: record
                # the drain in the link's FIFO instead of scheduling an event
                ld.append((departure, counter))
                heappush(events, (departure + per_hop, counter + 1, _HOP, a))
                counter += 2
            elif kind == _ACK:
                pkt = p_pkt[a]
                fs = pkt[0]
                seq = pkt[1]
                acked = f_acked[fs]
                if seq in acked:
                    continue
                acked.add(seq)
                infl = f_inflight[fs]
                infl = infl - 1 if infl > 0 else 0
                f_inflight[fs] = infl
                if len(acked) >= f_total[fs] and f_done[fs] is None:
                    f_done[fs] = p_deliver[a] + host
                    continue
                seq = f_next[fs]
                if seq < f_total[fs] and infl < window:
                    f_next[fs] = seq + 1
                    send(now, fs, seq, False)
            elif kind == _NACK:
                pkt = p_pkt[a]
                fs = pkt[0]
                seq = pkt[1]
                if seq in f_acked[fs]:
                    continue
                infl = f_inflight[fs]
                f_inflight[fs] = infl - 1 if infl > 0 else 0
                # FatPaths adaptivity: a trim signals congestion on the current
                # layer; the retransmission asks the selector for another one.
                if f_entry[fs].num_candidates > 1:
                    rows = f_rows[fs]
                    cur = f_path[fs]
                    new = int(npb(f_idarr[fs], cur_tab[cur], rows[0],
                                  hot_tab[rows[2]][cur], rows[1])[0])
                    if new != cur:
                        f_path[fs] = new
                        f_switches[fs] += 1
                        f_flowlet[fs] = 0
                send(now, fs, seq, True)
            else:  # _START
                fs = a
                total = f_total[fs]
                for _ in range(window if window < total else total):
                    send_new(now, fs)

        # flush the pending drains: the loop only applied them ahead of reads
        for li in range(num_links):
            ld = link_deq[li]
            if ld:
                queued = link_queued[li] - len(ld)
                link_queued[li] = queued if queued > 0 else 0

        # the last event is never a drain (its sibling hop arrival lands strictly
        # later), so `now` and the pop count match the reference's final state
        records = []
        for fs, flow in enumerate(flows_list):
            done = f_done[fs]
            entry = f_entry[fs]
            records.append(FlowRecord(
                flow_id=flow.flow_id, source=flow.source, destination=flow.destination,
                size_bytes=flow.size_bytes, start_time=flow.start_time,
                completion_time=done if done is not None else now,
                path_hops=entry.lengths[f_path[fs]],
                num_path_switches=f_switches[fs],
                congestion_events=f_trims[fs] + f_drops[fs]))
        self.last_stats = {"max_queued": stat_maxq, "priority_bypass": stat_bypass,
                           "max_in_flight": f_maxin}
        self.final_link_state = {"next_free": link_free, "queued": link_queued,
                                 "trims": link_trims, "drops": link_drops}
        return SimulationResult(records=records, name=workload.name,
                                meta={"topology": topology.name,
                                      "transport": self.transport.name,
                                      "events": counter,
                                      "total_trims": sum(link_trims),
                                      "total_drops": sum(link_drops),
                                      "unfinished_flows": f_done.count(None)})
