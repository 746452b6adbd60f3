"""Persistent allocation state of the flow engine (`repro.sim.allocstate`).

Before this module, :class:`repro.sim.engine.FlowEngine` regathered the full pooled
(link, flow) incidence of the active set (``active_incidence()``) and reran max-min
progressive filling over *all* active flows at every arrival, completion and path
switch — even though one event perturbs only a handful of links.  This module makes
the per-event allocation cost proportional to what the event actually changed, in two
layers:

* :class:`AllocationState` — the pooled ``(entry_links, entry_slots)`` incidence kept
  **alive across events** and amended O(delta): each flow owns one fixed segment of a
  growing pool (sized for its longest candidate path, so path switches rewrite in
  place), arrivals append, and completions and the entries a shorter path leaves
  behind are marked *dead* by pointing them at a sentinel slot.  Live entries
  always sit in ascending arrival order, so :class:`FullAllocator`, which drops the
  dead entries and refills every live one each event, is **bit-identical by
  construction** to the former rebuild-per-event engine (and therefore to the
  scalar reference simulator).
* :class:`IncrementalAllocator` — dirty-**component** refiltering behind
  ``FlowSimConfig(allocator="incremental")``.  Connected components of the link–flow
  incidence graph are tracked by a union-find over links, amended per event; on an
  event only the components touched by the delta are refilled and every untouched
  component keeps its cached rates and link utilisations.  Component-local filling is
  mathematically max-min exact (components share no links), but its float
  accumulation order differs from the global reference loop, so this allocator is
  opt-in: ``tests/sim/test_alloc_incremental.py`` pins rate agreement to tight
  tolerance, identical saturation sets and the bottleneck certificate on randomized
  event sequences.  Union-find cannot split, so a tracked component is always a
  *superset* (a union) of true components — refilling a union of true components is
  still exact — and the allocator falls back to a full fill plus an exact component
  rebuild (:func:`repro.sim.fairshare.incidence_components`) whenever accumulated
  merges/removals make the tracked partition stale or the dirty delta stops being
  local.

:class:`repro.sim.bottleneck.BottleneckAllocator` (``allocator="bottleneck"``) builds
on the same persistent state but decomposes by *saturated* links instead of
topological connectivity, which keeps per-event cost O(perturbation) even when the
incidence is one giant component — see that module's docstring.

All three allocators fill through one kernel, :func:`repro.sim.fairshare.leveled_fill`,
whether the entries are the whole live pool, one component (a singleton included)
or one bottleneck region.  The pool and a region fill over the links
:func:`_compress_links` finds them touching; a component fills over its root's own
link list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.sim.fairshare import incidence_components, leveled_fill
from repro.sim.simconfig import ALLOCATORS  # noqa: F401  (single source of truth)

#: Smallest entry pool an :class:`AllocationState` keeps allocated.
_MIN_POOL = 256

#: Slot id that marks dead pool entries.  A fixed constant above every real slot
#: (rather than the historical ``num_flows``) so the slot arrays can :meth:`~AllocationState.grow`
#: under the streaming driver without renumbering dead entries.
_DEAD_SLOT = 2 ** 62


# ------------------------------------------------------------ progressive filling
def _compress_links(entry_links: np.ndarray, num_links: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(entry_links, return_inverse=True)`` for link ids below
    ``num_links``, found by marking the touched links instead of sorting.

    Idle links never carry load, so they can neither bound a filling round's
    increment nor saturate: filling over the touched links only gives the same
    per-link floats and shrinks every per-round array to the touched set.
    """
    mark = np.zeros(num_links, dtype=bool)
    mark[entry_links] = True
    touched = mark.nonzero()[0]
    relabel = np.empty(num_links, dtype=np.int64)
    relabel[touched] = np.arange(touched.size)
    return touched, relabel[entry_links]


# ------------------------------------------------------------- persistent incidence
class AllocationState:
    """Pooled (link, slot) incidence of the active flows, amended across events.

    Flow *slots* are arrival positions ``0..num_flows-1``; the fixed out-of-range
    slot ``_DEAD_SLOT`` is the sentinel that marks dead pool entries.  Each flow
    owns one contiguous pool
    segment sized ``seg_cap[slot]`` (its longest candidate path plus the injection
    and ejection links), written ``[inject, path links..., eject]``; the live prefix
    has length ``seg_len[slot]`` and trailing slack entries are dead.  Segments are
    allocated in arrival order and never move (except under :meth:`compact`, which
    preserves ascending-slot order), so the pool's live entries are always exactly
    the flow-major active incidence the engine used to regather every event.
    """

    def __init__(self, num_flows: int, num_links: int) -> None:
        """Create an empty state for ``num_flows`` flow slots over ``num_links``."""
        self.num_flows = num_flows
        self.num_links = num_links
        self.sentinel = _DEAD_SLOT
        self.compactions = 0
        self.pool_links = np.zeros(_MIN_POOL, dtype=np.int64)
        self.pool_slots = np.full(_MIN_POOL, self.sentinel, dtype=np.int64)
        self.used = 0
        self.active_caps = 0
        self.seg_start = np.zeros(num_flows, dtype=np.int64)
        self.seg_cap = np.zeros(num_flows, dtype=np.int64)
        self.seg_len = np.zeros(num_flows, dtype=np.int64)
        #: Which slots hold a live segment.
        self.active_mask = np.zeros(num_flows, dtype=bool)

    def grow(self, num_flows: int) -> None:
        """Extend the slot arrays to ``num_flows`` slots (streaming ingestion).

        Dead pool entries keep the fixed sentinel, so only the per-slot arrays
        move; existing segments and the pool itself are untouched.
        """
        if num_flows <= self.num_flows:
            return
        seg_start = np.zeros(num_flows, dtype=np.int64)
        seg_cap = np.zeros(num_flows, dtype=np.int64)
        seg_len = np.zeros(num_flows, dtype=np.int64)
        mask = np.zeros(num_flows, dtype=bool)
        n = self.num_flows
        seg_start[:n] = self.seg_start
        seg_cap[:n] = self.seg_cap
        seg_len[:n] = self.seg_len
        mask[:n] = self.active_mask
        self.seg_start, self.seg_cap, self.seg_len = seg_start, seg_cap, seg_len
        self.active_mask = mask
        self.num_flows = num_flows

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pool's (links, slots) views, live and dead entries interleaved."""
        return self.pool_links[:self.used], self.pool_slots[:self.used]

    def live_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live (links, slots) entries only (a filtering copy, O(used))."""
        links, slots = self.entries()
        alive = slots != self.sentinel
        return links[alive], slots[alive]

    def flow_links(self, slot: int) -> np.ndarray:
        """The current full link list of one active flow (a pool view)."""
        start = int(self.seg_start[slot])
        return self.pool_links[start:start + int(self.seg_len[slot])]

    def segment_entries(self, member: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The live links of the ``member`` slots, flow-major, and each entry's
        position in ``member``."""
        lens = self.seg_len[member]
        ends = lens.cumsum()
        idx = np.arange(int(ends[-1]))
        src = (self.seg_start[member] - ends + lens).repeat(lens) + idx
        return self.pool_links[src], np.arange(member.size).repeat(lens)

    def _grow(self, need: int) -> None:
        """Ensure pool capacity ``need`` (amortized doubling)."""
        if need <= self.pool_links.size:
            return
        size = max(need, 2 * self.pool_links.size)
        links = np.zeros(size, dtype=np.int64)
        slots = np.full(size, self.sentinel, dtype=np.int64)
        links[:self.used] = self.pool_links[:self.used]
        slots[:self.used] = self.pool_slots[:self.used]
        self.pool_links, self.pool_slots = links, slots

    def add(self, slot: int, links: np.ndarray, capacity: int) -> None:
        """Append ``slot``'s segment (``links`` live, ``capacity`` reserved)."""
        capacity = max(int(capacity), len(links))
        self._grow(self.used + capacity)
        start = self.used
        n = len(links)
        self.pool_links[start:start + n] = links
        self.pool_slots[start:start + n] = slot
        # trailing slack is pre-marked dead by _grow's sentinel fill
        self.seg_start[slot] = start
        self.seg_cap[slot] = capacity
        self.seg_len[slot] = n
        self.used += capacity
        self.active_caps += capacity
        self.active_mask[slot] = True

    def remove(self, slot: int) -> None:
        """Mark ``slot``'s entries dead (its links stay readable until compaction)."""
        start = int(self.seg_start[slot])
        n = int(self.seg_len[slot])
        self.pool_slots[start:start + n] = self.sentinel
        self.active_caps -= int(self.seg_cap[slot])
        self.active_mask[slot] = False

    def replace_paths(self, slots: np.ndarray, ej: np.ndarray, mid_pool: np.ndarray,
                      mid_starts: np.ndarray, mid_lens: np.ndarray) -> None:
        """Rewrite the segments of ``slots`` to ``[inject, mids..., ej]`` in place.

        ``mid_starts``/``mid_lens`` slice the candidate bank's ``mid_pool``; every
        new path fits because segment capacities cover the longest candidate.  A
        flow keeps its injection link, so the segment's first entry stays as it
        is.  The entries a shorter path leaves behind go dead; their links are
        left in place (a dead entry's link is never read).
        """
        if not slots.size:
            return
        starts = self.seg_start[slots]
        mid_ends = mid_lens.cumsum()
        mid_total = int(mid_ends[-1])
        if mid_total:
            offsets = mid_ends - mid_lens
            idx = np.arange(mid_total)
            dst = (starts + 1 - offsets).repeat(mid_lens) + idx
            self.pool_links[dst] = mid_pool[(mid_starts - offsets).repeat(mid_lens) + idx]
            self.pool_slots[dst] = slots.repeat(mid_lens)
        new_lens = mid_lens + 2
        ends = starts + new_lens
        self.pool_links[ends - 1] = ej
        self.pool_slots[ends - 1] = slots
        left = self.seg_len[slots] - new_lens
        self.seg_len[slots] = new_lens
        most = left[left.argmax()]
        if most > 0:
            cols = np.arange(most)
            self.pool_slots[(ends[:, None] + cols)[cols < left[:, None]]] = self.sentinel

    def compact(self, order: np.ndarray) -> None:
        """Rebuild the pool tightly over ``order`` (the ascending active slots)."""
        order = np.asarray(order, dtype=np.int64)
        caps = self.seg_cap[order]
        lens = self.seg_len[order]
        total = int(caps.sum())
        size = max(_MIN_POOL, total)
        links = np.zeros(size, dtype=np.int64)
        slots = np.full(size, self.sentinel, dtype=np.int64)
        new_starts = np.cumsum(caps) - caps
        n_live = int(lens.sum())
        if n_live:
            offsets = np.cumsum(lens) - lens
            idx = np.arange(n_live)
            src = np.repeat(self.seg_start[order] - offsets, lens) + idx
            dst = np.repeat(new_starts - offsets, lens) + idx
            links[dst] = self.pool_links[src]
            slots[dst] = np.repeat(order, lens)
        self.pool_links, self.pool_slots = links, slots
        self.seg_start[order] = new_starts
        self.used = total
        self.compactions += 1

    def maybe_compact(self, order: np.ndarray) -> bool:
        """Compact when completed segments dominate the pool; True if compacted."""
        if self.used > _MIN_POOL and self.used > 2 * max(self.active_caps, 32):
            self.compact(order)
            return True
        return False


def _full_fill(state: AllocationState, capacities: np.ndarray, line_rate: float,
               active: np.ndarray, rates_out: np.ndarray) -> np.ndarray:
    """One full progressive fill over the live pool entries; returns link utilisation.

    Dead entries are dropped once, up front, and the live entries keep their
    ascending arrival order, so rates *and* the utilisation ``bincount`` (whose
    per-link sums see the same live terms in the same order) are bit-identical to
    a fill over a freshly gathered active incidence.  The fill runs over the slot
    ids themselves: a flow's rate does not depend on its label, and the fill
    touches per-flow arrays only through the entries.
    """
    entry_links, entry_slots = state.live_entries()
    touched, compressed = _compress_links(entry_links, capacities.shape[0])
    fair = leveled_fill(entry_slots, state.num_flows, capacities[touched], compressed,
                        touched.size)[0]
    np.minimum(fair, line_rate, out=fair)
    rates_out[active] = fair[active]
    return np.bincount(entry_links, weights=fair[entry_slots] / capacities[entry_links],
                       minlength=capacities.shape[0])


# ------------------------------------------------------------------ full allocator
class FullAllocator:
    """Per-event full refill over the persistent incidence (reference-equivalent).

    This is the default ``FlowSimConfig(allocator="full")`` path: the incidence is
    amended O(delta) per event (the former per-event regather is gone) but every
    recompute still fills all active flows, which keeps it bit-identical to the
    scalar reference simulator.
    """

    name = "full"

    def __init__(self, state: AllocationState, capacities: np.ndarray,
                 line_rate: float) -> None:
        """Bind the allocator to one run's state, capacities and line rate."""
        self.state = state
        self.capacities = capacities
        self.line_rate = line_rate
        self.link_util = np.zeros(capacities.shape[0])
        self.counters = {"full_fills": 0}

    def stats(self) -> Dict[str, int]:
        """Snapshot of the per-run counters (every recompute is a full fill)."""
        return dict(self.counters)

    def add(self, slot: int, links: np.ndarray, capacity: int) -> None:
        """Record one arrival's segment."""
        self.state.add(slot, links, capacity)

    def remove(self, slot: int) -> None:
        """Record one completion."""
        self.state.remove(slot)

    def switch(self, slots: np.ndarray, ej: np.ndarray, mid_pool: np.ndarray,
               mid_starts: np.ndarray, mid_lens: np.ndarray) -> None:
        """Record path switches (in-place segment rewrites)."""
        self.state.replace_paths(slots, ej, mid_pool, mid_starts, mid_lens)

    def idle(self) -> None:
        """No active flows: all utilisations are zero."""
        self.link_util[:] = 0.0

    def rebind(self, state: AllocationState, old_to_new: Dict[int, int]) -> None:
        """Adopt a renumbered state (the streaming driver's slot compaction).

        Link utilisations are per-link and unaffected by slot renumbering; the
        new state carries the accumulated compaction count forward.
        """
        state.compactions += self.state.compactions
        self.state = state

    def recompute(self, active: np.ndarray, rates_out: np.ndarray) -> np.ndarray:
        """Refill every active flow; returns the refilled slots (all of ``active``)."""
        self.state.maybe_compact(active)
        self.counters["full_fills"] += 1
        self.link_util = _full_fill(self.state, self.capacities, self.line_rate,
                                    active, rates_out)
        return active


# ----------------------------------------------------------- incremental allocator
class IncrementalAllocator:
    """Dirty-component refiltering over the persistent incidence (opt-in).

    A union-find over links tracks connected components of the link–flow incidence
    graph; arrivals/switches union their flow's links, completions mark the flow's
    component dirty.  :meth:`recompute` refills only the dirty components and keeps
    every untouched component's cached rates and utilisations.  Tracked components
    only ever merge (a superset of true components, which keeps component-local
    filling exact); the partition is re-derived exactly — together with a full
    fill — once accumulated removals/releases exceed ``max(16, |active| / 4)``
    ops, and a plain full fill (tracker untouched) covers any event whose dirty
    delta spans at least half the active set.
    """

    name = "incremental"

    def __init__(self, state: AllocationState, capacities: np.ndarray,
                 line_rate: float) -> None:
        """Bind the allocator to one run's state, capacities and line rate."""
        self.state = state
        self.capacities = capacities
        self.line_rate = line_rate
        num_links = capacities.shape[0]
        self.link_util = np.zeros(num_links)
        self._parent = np.arange(num_links, dtype=np.int64)
        self._members: Dict[int, List[int]] = {}     # root -> flow slots (may be stale)
        self._comp_links: Dict[int, List[int]] = {}  # root -> links owned by the root
        self._link_seen = np.zeros(num_links, dtype=bool)
        self._relabel = np.zeros(num_links, dtype=np.int64)   # link -> position in its list
        self._dirty: set = set()
        self._ops = 0
        self._needs_full = True
        self.counters = {"full_fills": 0, "rebuilds": 0, "component_refills": 0,
                         "refilled_flows": 0}

    def stats(self) -> Dict[str, int]:
        """Snapshot of the per-run counters.

        ``full_fills`` counts dense-delta fallbacks (tracker untouched),
        ``rebuilds`` the budgeted full fills with exact component re-derivation,
        ``component_refills``/``refilled_flows`` the local refills and the total
        flows they covered.
        """
        return dict(self.counters)

    # ------------------------------------------------------------- union-find
    def _find(self, link: int) -> int:
        """Root of ``link`` (path halving)."""
        parent = self._parent
        while parent[link] != link:
            parent[link] = parent[parent[link]]
            link = int(parent[link])
        return int(link)

    def _touch(self, link: int) -> int:
        """Register ``link`` on first sight as its own singleton root; return root."""
        if not self._link_seen[link]:
            self._link_seen[link] = True
            self._parent[link] = link
            self._comp_links[link] = [link]
            self._members.setdefault(link, [])
            return link
        return self._find(link)

    def _union(self, ra: int, rb: int) -> int:
        """Merge roots ``ra`` and ``rb`` (membership lists small-into-large)."""
        if ra == rb:
            return ra
        size_a = len(self._members.get(ra, ())) + len(self._comp_links[ra])
        size_b = len(self._members.get(rb, ())) + len(self._comp_links[rb])
        if size_a < size_b:
            ra, rb = rb, ra
        # merges are *exact*: a new entry really does connect the two components,
        # so unions never stale the tracked partition (only link releases do)
        self._parent[rb] = ra
        self._members.setdefault(ra, []).extend(self._members.pop(rb, []))
        self._comp_links[ra].extend(self._comp_links.pop(rb))
        return ra

    def _merge_links(self, links: np.ndarray) -> int:
        """Union all of one flow's links into a single root; return it."""
        root = self._touch(int(links[0]))
        for link in links[1:]:
            root = self._union(root, self._touch(int(link)))
        return root

    # ------------------------------------------------------------ event deltas
    def add(self, slot: int, links: np.ndarray, capacity: int) -> None:
        """Record one arrival: append its segment, join its links' components."""
        self.state.add(slot, links, capacity)
        root = self._merge_links(links)
        self._members.setdefault(root, []).append(slot)
        self._dirty.add(root)

    def remove(self, slot: int) -> None:
        """Record one completion: entries go dead, its component is dirty."""
        first = int(self.state.pool_links[int(self.state.seg_start[slot])])
        self.state.remove(slot)
        self._dirty.add(self._find(first))
        # removal can split the true component; only a rebuild re-separates it
        self._ops += 1

    def switch(self, slots: np.ndarray, ej: np.ndarray, mid_pool: np.ndarray,
               mid_starts: np.ndarray, mid_lens: np.ndarray) -> None:
        """Record path switches: rewrite segments, union new links into the roots."""
        self.state.replace_paths(slots, ej, mid_pool, mid_starts, mid_lens)
        for slot in np.asarray(slots, dtype=np.int64):
            # the flow's old links already share its root; new middle links may
            # pull other components in (a merge) — all end up in one dirty root
            self._dirty.add(self._merge_links(self.state.flow_links(int(slot))))
            # the released old path may have been the only bridge inside the
            # tracked component: a potential split, repaired at the next rebuild
            self._ops += 1

    def idle(self) -> None:
        """No active flows: all utilisations are zero."""
        self.link_util[:] = 0.0

    def rebind(self, state: AllocationState, old_to_new: Dict[int, int]) -> None:
        """Adopt a renumbered state: remap the tracked components' member slots.

        The union-find itself is link-indexed and survives renumbering
        untouched; member slot lists are rewritten through ``old_to_new``
        (retired slots simply drop out — the same filtering
        :meth:`_refill_component` applies via ``active_mask``).
        """
        state.compactions += self.state.compactions
        self.state = state
        self._members = {root: [old_to_new[s] for s in slots if s in old_to_new]
                         for root, slots in self._members.items()}

    # -------------------------------------------------------------- recompute
    def recompute(self, active: np.ndarray, rates_out: np.ndarray) -> np.ndarray:
        """Refill the dirty components (or fall back to a full fill + rebuild).

        Returns the slots whose rates were recomputed this event — the engine
        re-evaluates congestion episodes exactly for those.
        """
        if active.size == 0:
            self.idle()
            return active
        # compaction moves segments, not (slot, link) structure: the tracker holds
        self.state.maybe_compact(active)
        dirty = {self._find(r) for r in self._dirty}
        self._dirty.clear()
        if self._needs_full or self._ops >= max(16, active.size // 4):
            # accumulated link releases may have split true components the
            # tracker still shows merged: full fill + exact re-derivation
            return self._rebuild(active, rates_out)
        dirty_members = sum(len(self._members.get(r, ())) for r in dirty)
        if 2 * dirty_members >= active.size:
            # the delta is not local — a full fill is no dearer than refilling
            # most components one by one (tracked partition stays untouched)
            self.counters["full_fills"] += 1
            self.link_util = _full_fill(self.state, self.capacities, self.line_rate,
                                        active, rates_out)
            return active
        refilled = [self._refill_component(root, rates_out) for root in dirty]
        refilled = [r for r in refilled if r.size]
        self.counters["component_refills"] += len(refilled)
        self.counters["refilled_flows"] += sum(r.size for r in refilled)
        if not refilled:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(refilled)

    def _refill_component(self, root: int, rates_out: np.ndarray) -> np.ndarray:
        """Component-local progressive fill; updates rates and the root's links."""
        state = self.state
        alive = [s for s in self._members.get(root, ()) if state.active_mask[s]]
        self._members[root] = alive
        comp_links = np.asarray(self._comp_links[root], dtype=np.int64)
        if not alive:
            self.link_util[comp_links] = 0.0
            return np.empty(0, dtype=np.int64)
        member = np.asarray(alive, dtype=np.int64)
        entry_links, entry_flows = state.segment_entries(member)
        # fill over the root's whole link list (each link sits in one list): a
        # link no member crosses carries no load, retires before the first
        # round and reads utilisation 0
        self._relabel[comp_links] = np.arange(comp_links.size)
        compressed = self._relabel[entry_links]
        fair = leveled_fill(entry_flows, member.size, self.capacities[comp_links],
                            compressed, comp_links.size)[0]
        np.minimum(fair, self.line_rate, out=fair)
        rates_out[member] = fair
        self.link_util[comp_links] = np.bincount(
            compressed, weights=fair[entry_flows] / self.capacities[entry_links],
            minlength=comp_links.size)
        return member

    def _rebuild(self, active: np.ndarray, rates_out: np.ndarray) -> np.ndarray:
        """Full fill + exact component re-derivation from the live incidence."""
        self.link_util = _full_fill(self.state, self.capacities, self.line_rate,
                                    active, rates_out)
        self._parent = np.arange(self.capacities.shape[0], dtype=np.int64)
        self._members = {}
        self._comp_links = {}
        self._link_seen[:] = False
        links, slots = self.state.live_entries()
        if links.size:
            _, touched, link_labels, flows, flow_labels = \
                incidence_components(links, slots)
            order = np.argsort(link_labels, kind="stable")
            link_groups = np.split(touched[order],
                                   np.flatnonzero(np.diff(link_labels[order])) + 1)
            forder = np.argsort(flow_labels, kind="stable")
            flow_groups = np.split(flows[forder],
                                   np.flatnonzero(np.diff(flow_labels[forder])) + 1)
            for group_links, group_flows in zip(link_groups, flow_groups):
                root = int(group_links[0])
                self._parent[group_links] = root
                self._link_seen[group_links] = True
                self._comp_links[root] = group_links.tolist()
                self._members[root] = group_flows.tolist()
        self._ops = 0
        self._needs_full = False
        self.counters["rebuilds"] += 1
        return active


def make_allocator(name: str, num_flows: int, num_links: int, capacities: np.ndarray,
                   line_rate: float):
    """Construct the named allocator over a fresh :class:`AllocationState`."""
    if name not in ALLOCATORS:
        raise ValueError(f"unknown allocator {name!r}; available: {ALLOCATORS}")
    state = AllocationState(num_flows, num_links)
    if name == "bottleneck":
        # imported lazily: repro.sim.bottleneck itself imports this module
        from repro.sim.bottleneck import BottleneckAllocator

        return BottleneckAllocator(state, capacities, line_rate)
    cls = FullAllocator if name == "full" else IncrementalAllocator
    return cls(state, capacities, line_rate)
