"""Vectorized flow-simulation engine (`repro.sim.engine`).

This is the fast counterpart of the scalar reference simulator in
:mod:`repro.sim.reference`, built in the same mold as :mod:`repro.kernels`: identical
semantics (pinned record-for-record by ``tests/sim/test_engine_equivalence.py``), all
hot per-event work as array operations instead of per-flow Python loops.

What changes relative to the reference:

* **Structure-of-arrays flow state** — remaining bytes, rates, per-flow path indices,
  flowlet byte counters and congestion flags live in NumPy arrays indexed by arrival
  position; the active set is an ascending index array, so per-event byte accounting,
  completion search and congestion-episode detection are single vectorized sweeps.
* **Pooled incidence, amended incrementally** — candidate router paths are resolved
  once per (source router, target router) pair into a pooled link-index array shared
  across runs (:class:`CandidateBank`, one per routing scheme), instead of per
  simulator instance; the per-event flow/link incidence itself is *persistent
  state* (:class:`repro.sim.allocstate.AllocationState`): amended O(delta) on
  arrival/completion/switch, never regathered.  The full refill drops the pool's
  dead entries once per event and runs progressive filling over the live ones
  (:func:`repro.sim.fairshare.leveled_fill`, the one pooled fill every allocator
  shares), which counts link loads once and subtracts each frozen flow's entries
  per round — no per-event ``scipy.sparse`` matrix construction.
  ``FlowSimConfig(allocator="incremental")`` additionally enables dirty-component
  refiltering: only the incidence components an event touched are refilled,
  untouched components keep their cached rates (see
  :mod:`repro.sim.allocstate`); ``allocator="bottleneck"`` refills only the region
  downstream of the event in the cached bottleneck structure (see
  :mod:`repro.sim.bottleneck`).  Both are max-min exact, but their float
  accumulation order differs from the reference, hence opt-in.
* **Batched path-switch evaluation** — every resolved candidate has an id in the
  bank's candidate table (pool offsets, hop count, and a hop-major link table
  padded so a column maximum is the candidate's maximum).  Each event builds one
  id grid over the multi-path flows (under a fault, each row lists only the
  pair's surviving candidates), gathers link utilisation through the table and
  takes one maximum over the hop axis: that sweep gives every candidate's
  congestion, and the current path's is a gather from it.  Switch *eligibility*
  is one boolean mask over those rows, and the eligible rows go through one
  batched selector call
  (:meth:`~repro.core.loadbalance.PathSelector.next_path_batch`) whose vectorized
  draws consume the selector RNG exactly as per-flow calls in arrival order would —
  no per-flow Python callbacks on the hot path.  A selector that never moves a
  flow (``PathSelector.reroutes`` is False: ECMP) skips the sweep, whose only
  effect on it would be resetting flowlet byte counters that nothing else reads.
  Faulted and unfaulted runs share this sweep: under a fault, one gather of the
  failed-link mask through the same grid finds each row's surviving candidates.
  Arrivals under a fault share the re-placement chooser (survivors, else a
  detour, else a stall).
* **Shared link space** — the directed-link index space of a topology is built once
  and cached on the topology's :class:`~repro.kernels.cache.GraphKernels` entry
  (:func:`link_space_for`), so the many cells of a figure sweep stop rebuilding it.

One deliberate non-change: the next completion is found by a fresh masked ``argmin``
over the active flows each event, not by a lazy-deletion heap.  The reference
recomputes ``now + remaining / max(rate, eps)`` from scratch every event, and exact
tie-breaking (which decides selector RNG consumption downstream) depends on the
floating-point value *at the current* ``now`` — a heap entry computed at an earlier
``now`` can differ in the last ulp and flip near-ties, breaking record-for-record
equivalence.  The argmin is a single vectorized op and is never the bottleneck.

:func:`simulate_many` is the batched entry point used by the simulation experiments
(Figures 2, 12, 14, 15, 16, 20): it runs a list of :class:`SimCell` cells in order,
sharing link spaces and candidate banks across cells.  To run the scalar reference
instead, construct :class:`~repro.sim.reference.FlowLevelSimulator` directly, as the
equivalence tests do.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.loadbalance import FlowletSelector, PathSelector
from repro.core.mapping import is_valid_mapping
from repro.core.transport import TransportModel, ndp_transport
from repro.kernels.cache import GraphKernels, kernels_for
from repro.kernels.dirtyregion import faulted_kernels
from repro.sim.allocstate import AllocationState, make_allocator
from repro.sim.faults import detour_router_path
from repro.sim.metrics import FlowRecord, SimulationResult
from repro.sim.simconfig import FlowSimConfig
from repro.topologies.base import Topology
from repro.traffic.flows import Workload


# ------------------------------------------------------------------- link space
class LinkSpace:
    """The link index space of one topology.

    Links are numbered as in the reference simulator: both orientations of every
    router-router link first, then one injection link per endpoint, then one ejection
    link per endpoint (the NIC up/down links).
    """

    def __init__(self, topology: Topology) -> None:
        """Build the directed-edge index and injection/ejection bases."""
        self.directed = topology.directed_edges()
        self.edge_index: Dict[Tuple[int, int], int] = {e: i for i, e in enumerate(self.directed)}
        n_router_links = len(self.directed)
        self.num_endpoints = topology.num_endpoints
        self.inject_base = n_router_links
        self.eject_base = n_router_links + self.num_endpoints
        self.num_links = n_router_links + 2 * self.num_endpoints

    @property
    def nbytes(self) -> int:
        """Rough retained size (lets the shared cache account for this entry)."""
        # two tuple-of-two-ints keys plus dict slots per directed edge
        return 120 * len(self.directed)

    def links_of_path(self, path: Sequence[int]) -> List[int]:
        """Link indices of a router path (one per hop)."""
        index = self.edge_index
        return [index[(u, v)] for u, v in zip(path, path[1:])]


def link_space_for(topology: Topology) -> LinkSpace:
    """The (cached) :class:`LinkSpace` of ``topology``.

    Stored on the topology's :class:`~repro.kernels.cache.GraphKernels` entry, so all
    simulator instances over the same graph — including every cell of a
    :func:`simulate_many` sweep and every worker-local repeat — share one build.
    """
    key = ("sim_linkspace", topology.concentration, tuple(topology.endpoint_routers))
    return kernels_for(topology).aux(key, lambda: LinkSpace(topology))


# --------------------------------------------------------------- candidate bank
#: Utilisation of the candidate table's two sentinel links, read after the real
#: links: 0.0 pads an empty candidate (a maximum over no links), +inf fills the
#: padding candidate (id -1), so padding columns of an id grid read +inf.
_SENTINEL_UTIL = np.array([0.0, np.inf])


class CandidateEntry:
    """Pooled candidate paths of one (source router, target router) pair.

    The pair's candidates hold the consecutive global ids ``first ..
    first + num_candidates - 1`` of the bank's candidate table, which is the one
    store of their pool offsets (``cand_start``/``cand_len``, router links only —
    injection/ejection links are per-flow and added by the engine).
    ``lengths`` is the per-candidate hop count exactly as the reference computes it
    (``max(1, len(path) - 1)``); ``max_links`` is the full-path segment capacity
    (longest candidate plus injection/ejection) a flow on this pair reserves in the
    persistent allocation state, so any later path switch rewrites its segment in
    place.
    """

    __slots__ = ("first", "num_candidates", "lengths", "max_links")

    def __init__(self, first: int, lengths: List[int], max_links: int) -> None:
        """Wrap one pair's candidates (table ids from ``first`` on)."""
        self.first = first
        self.num_candidates = len(lengths)
        self.lengths = lengths
        self.max_links = max_links


def _grown(values: np.ndarray, size: int, fill) -> np.ndarray:
    """``values`` copied into a ``size``-long array (last axis), ``fill`` beyond."""
    out = np.full(values.shape[:-1] + (size,), fill, dtype=values.dtype)
    out[..., :values.shape[-1]] = values
    return out


class CandidateBank:
    """Pooled candidate-path store for one routing scheme over one link space.

    The bank is the engine's *incrementally amended* incidence: every distinct router
    pair is resolved through ``routing.router_paths`` exactly once, its candidates'
    link lists are appended to one growing ``int64`` pool, and all later runs (other
    workloads, other cells of a sweep) reuse the pooled segments.  Same-router pairs
    get the reference's synthetic single candidate (empty link list, hop count 1).

    Every resolved candidate gets a global id ``c`` in the *candidate table*:
    ``cand_start[c]``/``cand_len[c]`` slice the pool to its links, ``cand_hops[c]``
    is its hop count as a float, and column ``c`` of the hop-major ``hop_links``
    table lists its links, padded to the table depth with its own first link (an
    empty candidate with the ``zero_link`` sentinel), so a column maximum of
    per-link values is the candidate's maximum.  The table always keeps its last
    column unused: that is the padding candidate ``-1``, with hop count ``+inf``
    and every link the ``inf_link`` sentinel.  Sentinel utilisations are
    :data:`_SENTINEL_UTIL`, appended after the real links.
    """

    def __init__(self, links: LinkSpace) -> None:
        """Create an empty bank over ``links``."""
        self.links = links
        self.pool = np.zeros(256, dtype=np.int64)
        self.used = 0
        self.entries: Dict[Tuple[int, int], CandidateEntry] = {}
        self.zero_link = links.num_links
        self.inf_link = links.num_links + 1
        self.num_cands = 0
        self.cand_start = np.zeros(64, dtype=np.int64)
        self.cand_len = np.zeros(64, dtype=np.int64)
        self.cand_hops = np.full(64, np.inf)
        self.hop_links = np.full((1, 64), self.inf_link, dtype=np.int64)

    def _append(self, values: Sequence[int]) -> Tuple[int, int]:
        """Append link ids (a pair's candidates, or a detour) to the pool; return
        (start, length)."""
        need = self.used + len(values)
        if need > self.pool.size:
            grown = np.zeros(max(need, 2 * self.pool.size), dtype=np.int64)
            grown[:self.used] = self.pool[:self.used]
            self.pool = grown
        start = self.used
        self.pool[start:need] = values
        self.used = need
        return start, len(values)

    def _reserve(self, count: int, depth: int) -> None:
        """Make table room for ``count`` more candidates of up to ``depth`` links."""
        need = self.num_cands + count + 1          # + the padding column
        size = self.cand_start.size
        if need > size:
            size = max(need, 2 * size)
            self.cand_start = _grown(self.cand_start, size, 0)
            self.cand_len = _grown(self.cand_len, size, 0)
            self.cand_hops = _grown(self.cand_hops, size, np.inf)
            self.hop_links = _grown(self.hop_links, size, self.inf_link)
        extra = depth - self.hop_links.shape[0]
        if extra > 0:
            # repeat each column's first link: the column maxima stay the same
            self.hop_links = np.concatenate(
                [self.hop_links, np.repeat(self.hop_links[:1], extra, axis=0)])

    def entry(self, routing, source_router: int, target_router: int) -> CandidateEntry:
        """The pooled candidate entry for one router pair (resolved at most once)."""
        key = (source_router, target_router)
        cached = self.entries.get(key)
        if cached is not None:
            return cached
        if source_router == target_router:
            link_lists: List[List[int]] = [[]]
            lengths = [1]
        else:
            paths = routing.router_paths(source_router, target_router)
            if not paths:
                raise ValueError(f"routing scheme offers no path between routers {key}")
            link_lists = [self.links.links_of_path(p) for p in paths]
            lengths = [max(1, len(p) - 1) for p in paths]
        seg_lens = [len(link_list) for link_list in link_lists]
        self._reserve(len(link_lists), max(seg_lens))
        depth = self.hop_links.shape[0]
        first, end = self.num_cands, self.num_cands + len(link_lists)
        start, _ = self._append([link for link_list in link_lists for link in link_list])
        self.cand_start[first:end] = list(accumulate(seg_lens[:-1], initial=start))
        self.cand_len[first:end] = seg_lens
        self.cand_hops[first:end] = lengths
        # pad each column with its candidate's first link (or the zero sentinel)
        self.hop_links[:, first:end] = np.array(
            [link_list + link_list[:1] * (depth - len(link_list)) if link_list
             else [self.zero_link] * depth for link_list in link_lists]).T
        self.num_cands = end
        made = CandidateEntry(first, lengths, max(seg_lens) + 2)
        self.entries[key] = made
        return made


#: Per-routing-object candidate banks (weak keys: banks die with their routing).
_BANKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def candidate_bank_for(routing, links: LinkSpace) -> CandidateBank:
    """The shared :class:`CandidateBank` of one routing scheme (per link space)."""
    bank = _BANKS.get(routing)
    if bank is None or bank.links is not links:
        bank = CandidateBank(links)
        _BANKS[routing] = bank
    return bank


# ------------------------------------------------------------------ fault state
class _FaultRuntime:
    """Per-run fault state of the engine: the failed set and detours.

    Mirrors the reference spec (:mod:`repro.sim.faults`).  ``failed_mask`` is
    the one store of which links are down, indexed like the bank's link table:
    its ``num_links + 2`` entries cover the two sentinel links, which never
    fail.  A pair's surviving candidates are read off it (:meth:`survivors`).
    Detour distances come from the surviving graph's kernels
    (:func:`repro.kernels.dirtyregion.faulted_kernels`), fetched at most once per
    fault epoch — BFS distances are unique, so the backwalk builds exactly the
    reference's scalar-BFS detour.
    """

    def __init__(self, topology: Topology, links: LinkSpace, bank: CandidateBank) -> None:
        """Empty fault state over one topology / link space / candidate bank."""
        self.topology = topology
        self.adjacency = topology.adjacency()
        self.links = links
        self.bank = bank
        self.failed_edges: set = set()        # undirected (u < v) failed edges
        self.failed_mask = np.zeros(links.num_links + 2, dtype=bool)
        self.surviving: Optional[GraphKernels] = None

    # checkpoints leave the kernels cache entry out (their code digest does not
    # cover repro.kernels); the next detour refetches it
    def __getstate__(self):
        return dict(vars(self), surviving=None)

    def apply(self, deltas: Sequence[Tuple[str, Tuple[int, int]]]) -> None:
        """Apply one epoch's fail/restore deltas; a changed failed set rewrites
        the mask and drops the surviving graph."""
        before = set(self.failed_edges)
        for action, edge in deltas:
            if action == "fail":
                self.failed_edges.add(edge)
            else:
                self.failed_edges.discard(edge)
        if self.failed_edges == before:
            return
        self.surviving = None
        edge_index = self.links.edge_index
        self.failed_mask[:] = False
        for u, v in self.failed_edges:
            self.failed_mask[edge_index[(u, v)]] = self.failed_mask[edge_index[(v, u)]] = True

    def survivors(self, entry: CandidateEntry) -> np.ndarray:
        """Ascending indices of ``entry``'s candidates none of whose links failed
        (read through the pair's columns of the bank's link table)."""
        first = entry.first
        cols = self.bank.hop_links[:, first:first + entry.num_candidates]
        return np.flatnonzero(~self.failed_mask[cols].any(axis=0))

    def detour(self, rs: int, rt: int) -> Optional[List[int]]:
        """The deterministic detour router path rs -> rt on the surviving graph."""
        if self.surviving is None:
            self.surviving = faulted_kernels(self.topology, self.failed_edges)
        return detour_router_path(self.adjacency, self.failed_edges, rs, rt,
                                  self.surviving.distances_from(rs))


# ------------------------------------------------------------------ engine core
#: Slot-indexed flow arrays of :class:`EngineCore` as (name, dtype, fill value);
#: construction, growth and compaction all allocate from this one table.
_SLOT_ARRAYS: Tuple[Tuple[str, type, object], ...] = (
    *((name, np.int64, 0) for name in (
        "fid", "src", "dst", "src_router", "dst_router", "inj_link", "ej_link",
        "num_switches", "congestion_events", "path_index", "num_candidates",
        "cand_first", "cand_start", "cand_len")),
    *((name, np.float64, 0.0) for name in (
        "start", "size", "remaining", "rate", "bytes_since_switch")),
    ("currently_congested", np.bool_, False), ("stalled", np.bool_, False),
    # a detour's hop count; -1 while the flow rides one of its pair's candidates
    ("record_hops", np.int64, -1),
)


class EngineCore:
    """Mutable state plus per-event operations of one vectorized simulation run.

    Owns the structure-of-arrays flow state, the persistent allocation state, the
    fault runtime and the event counters of a single run.  Two drivers share it:

    * :meth:`FlowEngine.run` — the batch driver: ingests the whole (sorted)
      workload once and steps until every flow is admitted and finished;
      record-for-record identical to the scalar reference simulator.
    * :class:`repro.sim.stream.StreamSimulator` — the streaming driver: ingests
      open-ended arrival chunks (:meth:`ensure_capacity` doubles the arrays),
      steps up to a horizon, and periodically renumbers live slots
      (:meth:`compact_slots`) so memory stays proportional to the *active* set.

    Slots are arrival positions.  The ``active`` array is ascending, and —
    because ingestion appends in start-time order and slot compaction renumbers
    order-preservingly — ascending slot order *is* arrival order: the invariant
    both the full allocator's float accumulation (the pool's live entries sit in
    ascending slot order, see :func:`repro.sim.allocstate._full_fill`) and the
    selector RNG stream (batched calls consume draws in arrival order) rely on.
    """

    def __init__(self, sim: "FlowEngine", capacity: int,
                 sink: Callable[[FlowRecord], None]) -> None:
        """Bind one run's state to ``sim``'s stack; completed records go to ``sink``."""
        self.topology = sim.topology
        self.routing = sim.routing
        self.selector = sim.selector
        self.transport = sim.transport
        self.config = config = sim.config
        self.links = sim.links
        self.bank = sim.bank
        self.capacities = sim.capacities
        self.num_links = sim.num_links
        self.sink = sink
        self.line_rate = config.link_rate_bps / 8.0
        self.congestion_threshold = config.congestion_rate_fraction * self.line_rate
        self._routers: Optional[np.ndarray] = None
        self._remap: Optional[np.ndarray] = None

        capacity = max(int(capacity), 0)
        self.capacity = capacity
        self.count = 0          # flows ingested so far
        self.admit_idx = 0      # next slot to admit at its arrival event
        for name, dtype, fill in _SLOT_ARRAYS:
            setattr(self, name, np.full(capacity, fill, dtype=dtype))

        self.active = np.empty(0, dtype=np.int64)   # arrival positions, ascending
        #: Link utilisation as the switch sweep reads it: the allocator's, then
        #: the bank's two sentinel links (:data:`_SENTINEL_UTIL`).
        self.util = np.concatenate((np.zeros(self.num_links), _SENTINEL_UTIL))
        self.now = 0.0
        self.events = 0
        # persistent incidence + rate allocator (full: reference-equivalent refill
        # over the persistent pool; incremental: dirty-component refiltering)
        self.alloc = make_allocator(config.allocator, capacity, self.num_links,
                                    self.capacities, self.line_rate)

        # ---- fault state (mirrors the reference spec; see repro.sim.faults)
        self.fault_epochs = ([] if config.faults is None
                             else config.faults.resolve(sim.topology))
        self.fault_idx = 0
        self.fault_count = 0
        self.reroutes = 0
        self.stall_count = 0
        self.order_dirty = False
        self.faultrt = _FaultRuntime(sim.topology, self.links, self.bank)

    # -------------------------------------------------------------- ingestion
    def set_mapping(self, mapping: Optional[Sequence[int]]) -> None:
        """Install the optional endpoint remap applied to every ingested flow."""
        n = self.links.num_endpoints
        if mapping is not None and not is_valid_mapping(mapping, n):
            raise ValueError(f"mapping must be a permutation of the {n} endpoints")
        self._remap = None if mapping is None else np.asarray(mapping, dtype=np.int64)

    def _resize_slots(self, rows, capacity: int) -> None:
        """Reallocate every slot array at ``capacity`` slots, holding the old
        ``rows`` (a slice or an index array) as a dense prefix."""
        for name, dtype, fill in _SLOT_ARRAYS:
            kept = getattr(self, name)[rows]
            arr = np.full(capacity, fill, dtype=dtype)
            arr[:kept.size] = kept
            setattr(self, name, arr)

    def ensure_capacity(self, need: int) -> None:
        """Grow every slot-indexed array to hold ``need`` slots (amortized doubling)."""
        if need <= self.capacity:
            return
        new = max(need, 2 * self.capacity, 64)
        self._resize_slots(slice(0, self.count), new)
        self.alloc.state.grow(new)
        self.capacity = new

    def ingest(self, flows: Sequence) -> None:
        """Append ``flows`` (start-time ordered) at the tail of the slot arrays."""
        k = len(flows)
        if k == 0:
            return
        base = self.count
        self.ensure_capacity(base + k)
        end = base + k
        start = np.fromiter((f.start_time for f in flows), dtype=np.float64, count=k)
        if (k > 1 and bool((np.diff(start) < 0).any())) \
                or (base and start[0] < self.start[base - 1]):
            raise ValueError("arrival stream must be ordered by start time")
        src = np.fromiter((f.source for f in flows), dtype=np.int64, count=k)
        dst = np.fromiter((f.destination for f in flows), dtype=np.int64, count=k)
        size = np.fromiter((f.size_bytes for f in flows), dtype=np.float64, count=k)
        if self._remap is not None:
            src, dst = self._remap[src], self._remap[dst]
        if src.min() < 0 or dst.min() < 0 or \
                max(src.max(), dst.max()) >= self.links.num_endpoints:
            raise ValueError("workload references an endpoint out of range")
        if self._routers is None:
            self._routers = self.topology.endpoint_router_array()
        self.fid[base:end] = np.fromiter((f.flow_id for f in flows),
                                         dtype=np.int64, count=k)
        self.start[base:end] = start
        self.src[base:end] = src
        self.dst[base:end] = dst
        self.size[base:end] = size
        self.src_router[base:end] = self._routers[src]
        self.dst_router[base:end] = self._routers[dst]
        self.inj_link[base:end] = self.links.inject_base + src
        self.ej_link[base:end] = self.links.eject_base + dst
        self.remaining[base:end] = size
        self.count = end

    def next_pending_start(self) -> float:
        """Start time of the earliest not-yet-admitted flow (inf if none)."""
        if self.admit_idx < self.count:
            return float(self.start[self.admit_idx])
        return np.inf

    # ------------------------------------------------------------- event step
    def step(self, until: float = np.inf, strict: bool = False) -> bool:
        """Process the earliest pending event (fault epoch, arrival or completion).

        Returns ``False`` — and consumes nothing — when no event is pending or
        the earliest one lies strictly beyond ``until``.  Events exactly at
        ``until`` run unless ``strict``: the streaming driver advances strictly
        below the next not-yet-ingested arrival's start, so that after the
        arrival is ingested the batch tie-break order (fault >= arrival >=
        completion at equal times) is reproduced exactly.  Tie-breaking matches
        the reference loop: fault epochs win time ties over arrivals, arrivals
        win over completions.
        """
        active = self.active
        config = self.config
        if active.size:
            horizon = self.now + self.remaining[active] \
                / np.maximum(self.rate[active], config.rate_epsilon)
            k = int(horizon.argmin())   # first minimum = earliest-arrived, as reference
            completion_time = float(horizon[k])
            completing: Optional[int] = int(active[k])
        else:
            completion_time, completing = np.inf, None
        next_arrival = self.next_pending_start()
        next_fault = (self.fault_epochs[self.fault_idx][0]
                      if self.fault_idx < len(self.fault_epochs) else np.inf)
        earliest = min(next_fault, next_arrival, completion_time)
        if earliest == np.inf or earliest > until or (strict and earliest >= until):
            return False
        self.events += 1
        if next_fault <= next_arrival and next_fault <= completion_time:
            # fault epochs win time ties over arrivals and completions
            self.advance_to(float(next_fault))
            self.now = float(next_fault)
            self.apply_fault_epoch(self.fault_epochs[self.fault_idx][1])
            self.fault_idx += 1
        elif next_arrival <= completion_time:
            self.advance_to(float(next_arrival))
            self.now = float(next_arrival)
            self.admit_pending()
        else:
            self.advance_to(completion_time)
            self.now = completion_time
            self.active = active[active != completing]
            if not self.stalled[completing]:
                self.alloc.remove(completing)
            self.sink(self.make_record(completing, self.now))
        if not self.selector.reroutes:
            pass    # a static selector (ECMP) never moves a flow: no sweep
        elif self.faultrt.failed_edges:
            self.maybe_switch_paths_faulted()
        else:
            self.maybe_switch_paths()
        self.recompute_rates()
        return True

    def advance_to(self, new_time: float) -> None:
        """Transfer bytes on all active flows up to ``new_time`` (vectorized)."""
        # byte accounting: same elementwise expressions as the reference loop
        dt = new_time - self.now
        active = self.active
        if dt <= 0 or active.size == 0:
            return
        r = self.rate[active]
        left = self.remaining[active]
        transferred = np.where(np.isfinite(r), r * dt, left)
        np.minimum(transferred, left, out=transferred)
        self.remaining[active] = left - transferred
        self.bytes_since_switch[active] += transferred

    def admit_pending(self) -> None:
        """Admit every ingested flow with ``start <= now`` (one arrival event).

        Under a non-empty failed set, an arrival between two routers is placed
        by :meth:`choose_path`, the chooser :meth:`place_flow` uses too; an
        arrival with no path stalls without a selector draw or an allocation,
        on its first candidate, until a restore revives it.
        """
        now = self.now
        bank, routing, selector = self.bank, self.routing, self.selector
        faulted = bool(self.faultrt.failed_edges)
        src_router, dst_router = self.src_router, self.dst_router
        first_new = self.admit_idx
        while self.admit_idx < self.count and self.start[self.admit_idx] <= now:
            a = self.admit_idx
            self.admit_idx += 1
            rs, rt = int(src_router[a]), int(dst_router[a])
            entry = bank.entry(routing, rs, rt)
            self.num_candidates[a] = entry.num_candidates
            self.cand_first[a] = entry.first
            if faulted and rs != rt:
                if not self.choose_path(a, rs, rt):
                    self.stall_count += 1
                    self.stalled[a] = True
                    self.path_index[a] = 0
                    self.cand_start[a] = bank.cand_start[entry.first]
                    self.cand_len[a] = bank.cand_len[entry.first]
                    continue
            else:
                index = selector.initial_path(int(self.fid[a]), entry.num_candidates,
                                              path_lengths=entry.lengths)
                self.path_index[a] = index
                self.cand_start[a] = bank.cand_start[entry.first + index]
                self.cand_len[a] = bank.cand_len[entry.first + index]
            self.alloc_add(a, entry.max_links)
        self.active = np.concatenate([self.active,
                                      np.arange(first_new, self.admit_idx)])

    def recompute_rates(self) -> None:
        """Max-min fair rates + link utilisation + congestion-episode edges.

        The allocator refills from the persistent incidence (no per-event
        regather) and reports which slots it recomputed — all active ones for
        ``allocator="full"``, only the dirty components' members for
        ``allocator="incremental"``.  Congestion episodes are edge-triggered,
        and an untouched component's rates are unchanged by construction, so
        re-evaluating episodes exactly for the refilled slots is equivalent.
        """
        active = self.active
        alive = active[~self.stalled[active]] if self.stall_count else active
        if alive.size == 0:
            self.alloc.idle()
            return
        refilled = self.alloc.recompute(alive, self.rate)
        if refilled.size:
            congested = self.rate[refilled] < self.congestion_threshold
            self.congestion_events[refilled] += \
                congested & ~self.currently_congested[refilled]
            self.currently_congested[refilled] = congested

    def _id_grid(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The multi-path flows among ``rows``, their candidate counts and id grid.

        Each kept flow gets a row of the grid: its candidates' table ids,
        padded with the padding candidate ``-1``, so its current path sits in
        column ``path_index`` (see :meth:`_switch_sweep`).
        """
        counts = self.num_candidates[rows]
        several = counts > 1
        rows, counts = rows[several], counts[several]
        cols = np.arange(counts.max(initial=0))
        ids = np.where(cols < counts[:, None], self.cand_first[rows][:, None] + cols, -1)
        return rows, counts, ids

    def maybe_switch_paths(self) -> None:
        """Flowlet/congestion path switching: one congestion sweep, one selector call."""
        rows, counts, ids = self._id_grid(self.active)
        if rows.size:
            self._switch_sweep(rows, ids, counts, self.path_index[rows])

    def maybe_switch_paths_faulted(self) -> None:
        """Faulted-mode switching: the same sweep over the surviving candidates.

        Mirrors the reference's survivor-aware loop: stalled and detour flows
        never switch, a pair with at most one surviving candidate is skipped,
        and a row of the id grid lists only the pair's surviving candidates, in
        candidate order, so the selector sees survivor positions, loads and
        lengths.  One gather of the failed-link mask through the grid finds the
        dead candidates.
        """
        active = self.active
        rows, counts, ids = self._id_grid(
            active[~self.stalled[active] & (self.record_hops[active] < 0)])
        if rows.size == 0:
            return
        dead = (ids < 0) | self.faultrt.failed_mask[
            self.bank.hop_links.take(ids, axis=1)].any(axis=0)
        counts = np.count_nonzero(~dead, axis=1)
        several = counts > 1
        rows, counts = rows[several], counts[several]
        if rows.size == 0:
            return
        # survivors to the front in candidate order (a stable sort), then padding
        order = np.argsort(dead[several], axis=1, kind="stable")[:, :counts.max()]
        ids = np.where(np.arange(order.shape[1]) < counts[:, None],
                       np.take_along_axis(ids[several], order, axis=1), -1)
        # a flow's current path survives: any flow on a failed link was re-placed
        current = self.cand_first[rows] + self.path_index[rows]
        self._switch_sweep(rows, ids, counts, (ids == current[:, None]).argmax(axis=1))

    def _switch_sweep(self, rows: np.ndarray, ids: np.ndarray, counts: np.ndarray,
                      currents: np.ndarray) -> None:
        """Evaluate and apply path switches over an id grid.

        ``ids`` holds one row of candidate table ids per flow of ``rows`` (the
        first ``counts`` columns real, the rest ``-1``), and ``currents`` the
        column of each flow's current path.  One gather through the bank's
        hop-major link table and one maximum over the hop axis give every listed
        candidate's congestion.  A row is eligible after ``flowlet_bytes`` or
        when its current path is congested, and the eligible rows go to one
        batched selector call whose RNG consumption matches per-flow calls in
        arrival order exactly.  A switched flow's ``path_index`` becomes its
        chosen table id minus ``cand_first``.
        """
        bank = self.bank
        util = self.util
        util[:self.num_links] = self.alloc.link_util
        congestion = np.maximum.reduce(util.take(bank.hop_links.take(ids, axis=1)))
        # integer positions, not boolean masks: ``take`` gathers 2-D rows faster
        picked = ((self.bytes_since_switch[rows] >= self.config.flowlet_bytes)
                  | (congestion[np.arange(rows.size), currents] >= 1.0)).nonzero()[0]
        if picked.size == 0:
            return
        eligible, ids, currents = rows[picked], ids.take(picked, axis=0), currents[picked]
        new = self.selector.next_path_batch(
            self.fid[eligible], currents, counts[picked], congestion.take(picked, axis=0),
            bank.cand_hops.take(ids))
        self.bytes_since_switch[eligible] = 0.0
        moved = (new != currents).nonzero()[0]
        if moved.size:
            changed = eligible[moved]
            chosen = ids[moved, new[moved]]
            self.path_index[changed] = chosen - self.cand_first[changed]
            self.num_switches[changed] += 1
            starts, lens = bank.cand_start[chosen], bank.cand_len[chosen]
            self.cand_start[changed] = starts
            self.cand_len[changed] = lens
            # amend the persistent incidence: switched segments are rewritten
            # in place (capacity covers the longest candidate of the pair)
            self.alloc.switch(changed, self.ej_link[changed], bank.pool, starts, lens)

    # ------------------------------------------------------------ fault events
    def alloc_add(self, a: int, capacity: int) -> None:
        """(Re-)register slot ``a``'s current path with the allocator, reserving
        at least ``capacity`` entries (the pair's ``max_links``)."""
        seg_s, seg_l = self.cand_start[a], self.cand_len[a]
        full = np.empty(seg_l + 2, dtype=np.int64)
        full[0] = self.inj_link[a]
        full[1:-1] = self.bank.pool[seg_s:seg_s + seg_l]
        full[-1] = self.ej_link[a]
        self.alloc.add(a, full, capacity)

    def choose_path(self, a: int, rs: int, rt: int) -> bool:
        """Choose slot ``a``'s path under the failed set (reference ``place``):
        a surviving candidate, else a detour, else none.

        Writes the choice (``path_index``, ``cand_start``/``cand_len``,
        ``record_hops``) and returns True, or returns False with nothing
        written and no selector draw when the pair is disconnected.
        """
        bank, faultrt = self.bank, self.faultrt
        entry = bank.entries[(rs, rt)]
        survivors = faultrt.survivors(entry)
        if survivors.size:
            pos = int(self.selector.initial_path(
                int(self.fid[a]), survivors.size,
                path_lengths=[entry.lengths[i] for i in survivors]))
            self.path_index[a] = index = int(survivors[pos])
            cand = entry.first + index
            self.cand_start[a], self.cand_len[a] = bank.cand_start[cand], bank.cand_len[cand]
            self.record_hops[a] = -1
            return True
        detour = faultrt.detour(rs, rt)
        if detour is None:
            return False
        hops = max(1, len(detour) - 1)
        # the selector is still consulted (one candidate): RNG alignment
        self.selector.initial_path(int(self.fid[a]), 1, path_lengths=[hops])
        self.cand_start[a], self.cand_len[a] = bank._append(self.links.links_of_path(detour))
        self.path_index[a] = 0
        self.record_hops[a] = hops
        return True

    def place_flow(self, a: int) -> None:
        """Re-place one displaced flow through :meth:`choose_path` (survivors,
        else detour, else stall), with O(delta) allocation amendments."""
        bank, alloc = self.bank, self.alloc
        rs, rt = int(self.src_router[a]), int(self.dst_router[a])
        old_start, old_len = int(self.cand_start[a]), int(self.cand_len[a])
        # copy before any detour append: bank.pool may reallocate under us
        old_links = bank.pool[old_start:old_start + old_len].copy()
        was_stalled = bool(self.stalled[a])
        if not self.choose_path(a, rs, rt):
            # Disconnected: stall in place, drop out of the allocation.
            if not was_stalled:
                self.stalled[a] = True
                self.rate[a] = 0.0
                self.stall_count += 1
                alloc.remove(a)
            return
        self.stalled[a] = False
        new_start, new_len = int(self.cand_start[a]), int(self.cand_len[a])
        new_links = bank.pool[new_start:new_start + new_len]
        changed_path = new_len != old_len or bool((new_links != old_links).any())
        max_links = bank.entries[(rs, rt)].max_links
        if was_stalled:
            self.alloc_add(a, max_links)
            self.order_dirty = True
        elif changed_path:
            if new_len + 2 <= int(alloc.state.seg_cap[a]):
                slot = np.array([a], dtype=np.int64)
                alloc.switch(slot, self.ej_link[slot], bank.pool, self.cand_start[slot],
                             self.cand_len[slot])
            else:   # detour longer than the reserved segment: move to the end
                alloc.remove(a)
                self.alloc_add(a, max_links)
                self.order_dirty = True
        if changed_path:
            self.num_switches[a] += 1
            self.bytes_since_switch[a] = 0.0
            self.reroutes += 1

    def apply_fault_epoch(self, deltas: Sequence[Tuple[str, Tuple[int, int]]]) -> None:
        """Apply one epoch and displace affected flows in arrival order.

        The displacement loop is scalar on purpose: it consumes the selector
        RNG per displaced flow exactly as the reference's dict-order loop
        does.  Re-adds break the pool's ascending arrival order (which the
        full allocator's float accumulation follows), so the epoch ends with
        a compaction back to ascending order whenever one happened.
        """
        faultrt, bank = self.faultrt, self.bank
        self.fault_count += 1
        faultrt.apply(deltas)
        self.order_dirty = False
        for a in self.active:
            a = int(a)
            if self.src_router[a] == self.dst_router[a]:
                continue      # synthetic empty-link candidate: immune
            if self.stalled[a]:
                needs = True  # always retry: a restore may have reconnected
            else:
                s, length = int(self.cand_start[a]), int(self.cand_len[a])
                dead = bool(faultrt.failed_mask[bank.pool[s:s + length]].any())
                if self.record_hops[a] >= 0:    # on a detour
                    needs = dead or faultrt.survivors(bank.entries[
                        (int(self.src_router[a]), int(self.dst_router[a]))]).size > 0
                else:
                    needs = dead
            if needs:
                self.place_flow(a)
        if self.order_dirty:
            self.alloc.state.compact(self.active[~self.stalled[self.active]])

    # ---------------------------------------------------------------- records
    def make_record(self, a: int, completion_time: float) -> FlowRecord:
        """Assemble one flow's record (RTT + transport startup, as reference)."""
        config = self.config
        hops = int(self.record_hops[a])
        if hops < 0:
            hops = int(self.bank.cand_hops[self.cand_first[a] + self.path_index[a]])
        rtt = 2 * (hops * config.per_hop_latency + config.host_latency)
        startup = self.transport.startup_delay(float(self.size[a]), rtt,
                                               config.link_rate_bps)
        return FlowRecord(
            flow_id=int(self.fid[a]), source=int(self.src[a]),
            destination=int(self.dst[a]),
            size_bytes=float(self.size[a]), start_time=float(self.start[a]),
            completion_time=float(completion_time + rtt / 2 + startup),
            path_hops=hops, num_path_switches=int(self.num_switches[a]),
            congestion_events=int(self.congestion_events[a]))

    def meta(self) -> Dict[str, object]:
        """The run's meta dict (event/fault/allocator counters)."""
        meta: Dict[str, object] = {
            "topology": self.topology.name,
            "routing": getattr(self.routing, "name", type(self.routing).__name__),
            "transport": self.transport.name,
            "events": self.events,
            "engine": "engine",
            "allocator": self.alloc.name,
            "allocator_stats": self.alloc.stats(),
            "pool_compactions": self.alloc.state.compactions}
        if self.config.faults is not None:
            meta["fault_events"] = self.fault_count
            meta["reroutes"] = self.reroutes
            meta["stalls"] = self.stall_count
        return meta

    # ------------------------------------------------------- streaming support
    def compact_slots(self) -> int:
        """Renumber live slots to a dense prefix (arrival order preserved).

        Retired (completed) slots are dropped: active slots become ``0..a-1``
        and not-yet-admitted slots ``a..a+p-1`` in the same relative order, so
        both engine invariants survive — ascending slot order is still arrival
        order, and the allocation pool (rebuilt segment-by-segment in the new
        order) keeps exactly the live entries a batch run that never saw the
        retired flows would hold.  Stalled flows keep no allocation segment
        (they re-add on revival), matching their pre-compaction state.  Returns
        the number of retired slots dropped.

        Only the streaming driver calls this; the batch driver's slot space is
        its workload's arrival order and never shrinks.
        """
        active = self.active
        pending = np.arange(self.admit_idx, self.count, dtype=np.int64)
        keep = np.concatenate([active, pending])
        dropped = self.count - keep.size
        if dropped == 0:
            return 0
        count = keep.size
        capacity = max(64, count)
        # gather the live allocation segments before any array moves (old ids)
        state = self.alloc.state
        segs: List[Optional[Tuple[np.ndarray, int]]] = []
        for a in active:
            a = int(a)
            if self.stalled[a]:
                segs.append(None)   # stalled: no live allocation until revived
            else:
                segs.append((state.flow_links(a).copy(), int(state.seg_cap[a])))
        self._resize_slots(keep, capacity)
        # rebuild the allocation state over the new slot ids, in the new order
        new_state = AllocationState(capacity, self.num_links)
        for new_slot, seg in enumerate(segs):
            if seg is not None:
                links, cap = seg
                new_state.add(new_slot, links, cap)
        self.alloc.rebind(new_state,
                          {int(old): i for i, old in enumerate(keep)})
        self.active = np.arange(active.size, dtype=np.int64)
        self.admit_idx = active.size
        self.count = count
        self.capacity = capacity
        return dropped

    def reclaim_bank(self) -> int:
        """Drop dead detour segments from the candidate bank pool.

        Only valid when the bank is private to this run (the streaming driver's
        bank) — pair-candidate segments move, so the bank's candidate table and
        the per-flow ``cand_start`` offsets are rewritten.  Shared batch-mode
        banks must never be reclaimed.  Returns pool entries freed.
        """
        bank = self.bank
        old_pool = bank.pool
        # candidates repack in table-id order, which is their resolution order
        n = bank.num_cands
        starts, lens = bank.cand_start[:n], bank.cand_len[:n]
        packed = np.cumsum(lens) - lens
        pos = int(lens.sum())
        pieces = [old_pool[np.repeat(starts - packed, lens) + np.arange(pos)]]
        bank.cand_start[:n] = packed
        active = self.active
        detoured = self.record_hops[active] >= 0
        for a in active[detoured].tolist():
            s, length = int(self.cand_start[a]), int(self.cand_len[a])
            pieces.append(old_pool[s:s + length])
            self.cand_start[a] = pos
            pos += length
        freed = bank.used - pos
        new_pool = np.zeros(max(256, pos), dtype=np.int64)
        if pos:
            new_pool[:pos] = np.concatenate(pieces)
        bank.pool = new_pool
        bank.used = pos
        # re-point every admitted non-detour flow at its candidate's moved segment
        moved = active[~detoured]
        self.cand_start[moved] = bank.cand_start[self.cand_first[moved]
                                                 + self.path_index[moved]]
        return freed


# ----------------------------------------------------------------------- engine
class FlowEngine:
    """Vectorized flow-level simulation of one workload (reference-equivalent).

    Drop-in replacement for :class:`repro.sim.reference.FlowLevelSimulator` — same
    constructor, same :meth:`run` contract, record-for-record identical results —
    with all per-event work vectorized over structure-of-arrays flow state.
    """

    def __init__(self, topology: Topology, routing, selector: Optional[PathSelector] = None,
                 transport: Optional[TransportModel] = None,
                 config: Optional[FlowSimConfig] = None, seed: int = 0) -> None:
        """Bind one (topology, routing, selector, transport) stack to shared caches."""
        self.topology = topology
        self.routing = routing
        self.selector = selector if selector is not None else FlowletSelector(seed=seed)
        self.transport = transport or ndp_transport()
        self.config = config or FlowSimConfig()
        self.links = link_space_for(topology)
        self.bank = candidate_bank_for(routing, self.links)
        self.num_links = self.links.num_links
        rate_bytes = self.config.link_rate_bps / 8.0
        self.capacities = np.full(self.num_links, rate_bytes)

    # -------------------------------------------------------------------- run
    def run(self, workload: Workload, mapping: Optional[Sequence[int]] = None) -> SimulationResult:
        """Simulate ``workload`` and return per-flow records.

        ``mapping`` optionally remaps endpoints (randomized workload mapping).
        The whole workload is ingested up front and driven through one
        :class:`EngineCore` (the streaming driver in :mod:`repro.sim.stream`
        shares the same core, feeding it incrementally instead).
        """
        arrivals = workload.sorted_by_start()
        records: List[FlowRecord] = []
        core = EngineCore(self, len(arrivals), records.append)
        core.set_mapping(mapping)
        core.ingest(arrivals)
        # Every step admits one arrival instant, completes one flow or applies one
        # fault epoch, so the loop ends.  A fault epoch after the last completion
        # is never an event, as in the reference.
        while core.admit_idx < core.count or core.active.size:
            core.step()
        records.sort(key=lambda r: r.flow_id)
        return SimulationResult(records=records, name=workload.name, meta=core.meta())


# ------------------------------------------------------------------ batched API
@dataclass
class SimCell:
    """One simulation cell of a sweep: a workload under one stack on one topology."""

    topology: Topology
    routing: object
    workload: Workload
    selector: Optional[PathSelector] = None
    transport: Optional[TransportModel] = None
    config: Optional[FlowSimConfig] = None
    mapping: Optional[Sequence[int]] = None
    seed: int = 0
    drop_warmup: bool = False


def simulate_many(cells: Sequence[SimCell]) -> List[SimulationResult]:
    """Run many simulation cells in order, sharing setup across them.

    Cells are executed sequentially (so stateful selectors shared between cells
    consume their RNG streams exactly as the equivalent sequence of
    :func:`repro.sim.flowsim.simulate_workload` calls would), but the expensive
    per-cell setup is amortized: link spaces are shared per topology through the
    kernel cache, and candidate paths are resolved once per (routing, router pair)
    through the pooled :class:`CandidateBank`.  This is the entry point the
    simulation-backed experiments (Figures 2, 12, 14, 15, 16, 20) sweep their
    (stack, workload, seed) grids through.
    """
    results: List[SimulationResult] = []
    for cell in cells:
        sim = FlowEngine(cell.topology, cell.routing, selector=cell.selector,
                         transport=cell.transport, config=cell.config, seed=cell.seed)
        result = sim.run(cell.workload, mapping=cell.mapping)
        if cell.drop_warmup:
            result = result.warmup_filtered()
        results.append(result)
    return results
