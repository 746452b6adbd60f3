"""Load-aware bottleneck-structure allocator (`repro.sim.bottleneck`).

:class:`repro.sim.allocstate.IncrementalAllocator` made per-event allocation cost
O(delta) — but its union-find components are *topological*: any shared link couples
two flows into one component.  On dense traffic (all-at-once incast, shuffle,
sustained streams) every flow shares some link, the incidence collapses into one
giant component, and every event degenerates to a full fill.  Max-min coupling,
however, propagates only through **saturated** links: progressive filling freezes
flows in saturation rounds (bottleneck *levels*), and an event can only change the
rate of a flow it can reach through links that are actually bottlenecks.  The flows
reachable through slack links are — by the max-min decomposition — already frozen at
rates an event elsewhere cannot move.

:class:`BottleneckAllocator` (``FlowSimConfig(allocator="bottleneck")``) keeps that
structure as persistent state across events:

* ``link_load`` / ``sat_mask`` — per-link carried load and the saturated-link set of
  the current allocation, amended O(delta) per event (completions subtract their
  contribution immediately, arrivals and switches re-add after the refill);
* ``link_members`` — link → member-flow lists, appended on arrival/switch and
  lazily filtered through ``AllocationState.active_mask`` (pruned at rebuilds);
* ``_rates`` — the allocator's own slot-indexed rate cache, the splice source for
  every flow an event does *not* touch.

On each event :meth:`recompute` closes the event's seed (touched flows plus the
members of touched links that were saturated before the event) over the cached
structure — flow → its saturated links → their member flows — which yields exactly
the *downstream* perturbation region of the bottleneck graph.  Only that region is
refilled, against residual capacities (full capacity minus the load of untouched
flows), while every upstream/sibling level keeps its cached rate: the splice is
exact because slack links cannot constrain the refill and saturated links bring all
their members into the region by construction.  One subtlety keeps this honest: a
refill can newly saturate a link that still carries *outside* flows (their cached
rates would then violate max-min), so newly-saturated boundary links trigger an
expansion round that pulls their members in and refills again.  A budget guard
falls back to one full fill whenever the downstream set covers most of the active
flows, and the whole structure is rebuilt exactly (members pruned, levels
recomputed) on a per-ops budget — the same shape of fallback the incremental
allocator uses.  Every fill here, region refill or full refresh, is
:func:`repro.sim.fairshare.leveled_fill`, the kernel the ``"full"`` and
``"incremental"`` allocators fill through too; this allocator is the one that
reads its saturation rounds.

Like ``"incremental"``, this allocator is opt-in: component-local float
accumulation differs from the global reference loop, so agreement is pinned to
1e-9 rate tolerance, identical saturation sets and the
:func:`repro.sim.fairshare.bottleneck_certificate` on randomized event sequences
(``tests/sim/test_alloc_bottleneck.py``), not bit-identity.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.sim.allocstate import AllocationState, _compress_links
from repro.sim.fairshare import leveled_fill

#: Relative slack below which a link counts as saturated for *coupling* purposes.
#: Looser than the fill's own 1e-12 saturation epsilon so that float drift in the
#: incrementally maintained ``link_load`` can never hide a truly saturated link
#: from the downstream closure; treating a hairline-slack link as saturated only
#: enlarges the refill region, which stays exact.
_SAT_RTOL = 1e-9

#: Refill/expansion iterations per event before falling back to a full fill.
_EXPANSION_CAP = 4


def _fresh_counters() -> Dict[str, int]:
    """Per-run observability counters (surfaced through ``meta['allocator_stats']``)."""
    return {"full_fills": 0, "rebuilds": 0, "refills": 0, "expansions": 0,
            "downstream_flows": 0, "downstream_max": 0, "levels_refilled": 0}


class BottleneckAllocator:
    """Downstream-only refills over the cached bottleneck structure (opt-in)."""

    name = "bottleneck"

    def __init__(self, state: AllocationState, capacities: np.ndarray,
                 line_rate: float) -> None:
        """Bind the allocator to one run's state, capacities and line rate."""
        self.state = state
        self.capacities = capacities
        self.line_rate = line_rate
        num_links = capacities.shape[0]
        self.link_util = np.zeros(num_links)
        #: Load carried by each link under the current allocation (amended O(delta)).
        self.link_load = np.zeros(num_links)
        #: Saturated-link set of the current allocation — the coupling graph edges.
        self.sat_mask = np.zeros(num_links, dtype=bool)
        #: Allocator-owned rate cache (slot-indexed; the engine's array is rebound
        #: under slot compaction, so a borrowed reference would go stale).
        self._rates = np.zeros(state.num_flows)
        #: link -> member flow slots (appended on add/switch, lazily filtered
        #: through ``state.active_mask``, pruned exactly at rebuilds).
        self.link_members: Dict[int, List[int]] = {}
        self._dirty_slots: Set[int] = set()   # flows needing a refill (add/switch)
        self._seed_links: Set[int] = set()    # links touched by events since recompute
        self._ops = 0
        self._needs_rebuild = True
        self.counters = _fresh_counters()

    def stats(self) -> Dict[str, int]:
        """Snapshot of the per-run counters."""
        return dict(self.counters)

    # ------------------------------------------------------------- slot arrays
    def _grow_slots(self, need: int) -> None:
        """Ensure the rate cache covers ``need`` slots (amortized doubling)."""
        if need <= self._rates.shape[0]:
            return
        rates = np.zeros(max(need, 2 * self._rates.shape[0], 64))
        rates[:self._rates.shape[0]] = self._rates
        self._rates = rates

    # ------------------------------------------------------------ event deltas
    def add(self, slot: int, links: np.ndarray, capacity: int) -> None:
        """Record one arrival: append its segment, join its links' member lists.

        The new flow carries no load until its first refill; its links seed the
        downstream closure so the structure it lands in is refilled around it.
        """
        self.state.add(slot, links, capacity)
        self._grow_slots(slot + 1)
        self._rates[slot] = 0.0
        for link in set(links.tolist()):
            self.link_members.setdefault(link, []).append(slot)
            self._seed_links.add(link)
        self._dirty_slots.add(slot)
        self._ops += 1

    def remove(self, slot: int) -> None:
        """Record one completion: subtract its load *now*, seed its links.

        The links and cached rate are read immediately because the segment may
        be compacted away before the next :meth:`recompute`.  ``sat_mask`` is
        deliberately left at its pre-event value: the downstream closure must
        see the coupling that existed when the flow still held its rate.
        """
        self._release(slot)
        self.state.remove(slot)
        self._dirty_slots.discard(slot)
        self._ops += 1

    def _release(self, slot: int) -> None:
        """Take ``slot``'s cached rate off its links and seed them.

        A path is a handful of links, so a loop over them costs less than
        array calls; a link the path crosses twice loses ``2 * rate`` at once.
        """
        path = self.state.flow_links(slot).tolist()
        links = set(path)
        rate = float(self._rates[slot])
        if rate:
            load, util, caps = self.link_load, self.link_util, self.capacities
            for link in links:
                load[link] -= path.count(link) * rate
                util[link] = load[link] / caps[link]
        self._rates[slot] = 0.0
        self._seed_links.update(links)

    def switch(self, slots: np.ndarray, ej: np.ndarray, mid_pool: np.ndarray,
               mid_starts: np.ndarray, mid_lens: np.ndarray) -> None:
        """Record path switches: release old links' load, join the new links."""
        state = self.state
        slots = np.asarray(slots, dtype=np.int64)
        for slot in slots.tolist():
            self._release(slot)
            self._dirty_slots.add(slot)
            self._ops += 1
        state.replace_paths(slots, ej, mid_pool, mid_starts, mid_lens)
        for slot in slots.tolist():
            for link in set(state.flow_links(slot).tolist()):
                self.link_members.setdefault(link, []).append(slot)
                self._seed_links.add(link)

    def idle(self) -> None:
        """No active flows: the structure is empty."""
        self.link_util[:] = 0.0
        self.link_load[:] = 0.0
        self.sat_mask[:] = False
        self.link_members.clear()
        self._dirty_slots.clear()
        self._seed_links.clear()
        self._ops = 0

    def rebind(self, state: AllocationState, old_to_new: Dict[int, int]) -> None:
        """Adopt a renumbered state (the streaming driver's slot compaction).

        Per-link caches are unaffected by slot renumbering; slot-indexed caches
        and member lists are rewritten through ``old_to_new`` (retired slots
        drop out, exactly like the ``active_mask`` filter would drop them).
        """
        state.compactions += self.state.compactions
        self.state = state
        rates = np.zeros(max(state.num_flows, 64))
        for old, new in old_to_new.items():
            if old < self._rates.shape[0]:
                rates[new] = self._rates[old]
        self._rates = rates
        self.link_members = {
            link: [old_to_new[s] for s in members if s in old_to_new]
            for link, members in self.link_members.items()}
        self._dirty_slots = {old_to_new[s] for s in self._dirty_slots
                             if s in old_to_new}

    # -------------------------------------------------------------- recompute
    def recompute(self, active: np.ndarray, rates_out: np.ndarray) -> np.ndarray:
        """Refill the downstream region of this event's perturbation.

        Returns the slots whose rates were recomputed — the engine re-evaluates
        congestion episodes exactly for those.
        """
        if active.size == 0:
            self.idle()
            return active
        # compaction moves segments, not (slot, link) structure: the caches hold
        self.state.maybe_compact(active)
        self._grow_slots(int(active[-1]) + 1)
        dirty = sorted(self._dirty_slots)
        seeds = sorted(self._seed_links)
        self._dirty_slots = set()
        self._seed_links = set()
        if self._needs_rebuild or self._ops >= max(64, active.size):
            return self._rebuild(active, rates_out)
        region = self._downstream(dirty, seeds)
        committed: Set[int] = set()
        refilled = np.empty(0, dtype=np.int64)
        for iteration in range(_EXPANSION_CAP + 1):
            if not region:
                break
            if 2 * len(region) >= active.size or iteration == _EXPANSION_CAP:
                # the perturbation is not local (or refuses to stop growing):
                # one full fill is no dearer than refilling most of the set
                self.counters["full_fills"] += 1
                self._full_refresh(active, rates_out)
                return active
            if iteration:
                self.counters["expansions"] += 1
            refilled, expand = self._refill(region, rates_out, committed)
            if not expand:
                break
            region = self._downstream(refilled.tolist(), expand)
        # seed links no commit touched (e.g. the sole flow of a link completed):
        # refresh their saturation from the maintained loads
        caps, load = self.capacities, self.link_load
        for link in seeds:
            if link not in committed:
                self.sat_mask[link] = \
                    caps[link] - load[link] <= _SAT_RTOL * caps[link] + _SAT_RTOL
        return refilled

    def _downstream(self, dirty: List[int], seeds: List[int]) -> Set[int]:
        """Close the event seed over the cached saturated-coupling structure.

        Alternating closure: a reached flow couples through every *saturated*
        link it crosses; a reached link couples to all its member flows.  Slack
        links never propagate — that is the bottleneck-structure pruning.
        Member lists are filtered (and pruned in place) through ``active_mask``.
        """
        state = self.state
        mask = state.active_mask
        sat = self.sat_mask
        members = self.link_members
        seen_flows: Set[int] = set(s for s in dirty if mask[s])
        seen_links: Set[int] = set(link for link in seeds if sat[link])
        pending_flows = list(seen_flows)
        pending_links = list(seen_links)
        while pending_links or pending_flows:
            if pending_links:
                link = pending_links.pop()
                alive = [s for s in members.get(link, ()) if mask[s]]
                members[link] = alive
                for s in alive:
                    if s not in seen_flows:
                        seen_flows.add(s)
                        pending_flows.append(s)
                continue
            flow = pending_flows.pop()
            for link in state.flow_links(flow).tolist():
                if sat[link] and link not in seen_links:
                    seen_links.add(link)
                    pending_links.append(link)
        return seen_flows

    def _refill(self, region: Set[int], rates_out: np.ndarray,
                committed: Set[int]) -> Tuple[np.ndarray, List[int]]:
        """Refill ``region`` against residual capacities; commit the result.

        Residual capacity of a touched link is its full capacity minus the load
        of flows *outside* the region (computed by subtracting the region's own
        cached contribution from the maintained total).  Saturated links have no
        outside flows by closure, so their full capacity is in play; slack links
        keep their outside load reserved.  Returns the refilled slots (ascending)
        and the newly saturated links that still carry outside members — the
        expansion frontier (empty when the commit is final).
        """
        state = self.state
        member = np.fromiter(sorted(region), dtype=np.int64, count=len(region))
        entry_links, entry_flows = state.segment_entries(member)
        touched, compressed = _compress_links(entry_links, self.capacities.shape[0])
        caps = self.capacities[touched]
        load = self.link_load[touched]
        old_load = np.bincount(compressed, weights=self._rates[member][entry_flows],
                               minlength=touched.size)
        residual = caps - (load - old_load)
        np.maximum(residual, 0.0, out=residual)
        fair, link_round, levels = leveled_fill(
            entry_flows, member.size, residual, compressed, touched.size)
        np.minimum(fair, self.line_rate, out=fair)
        # commit: rates, loads, utilisation and the structure over touched links
        rates_out[member] = fair
        self._rates[member] = fair
        new_load = np.bincount(compressed, weights=fair[entry_flows],
                               minlength=touched.size)
        load += new_load - old_load
        self.link_load[touched] = load
        self.link_util[touched] = load / caps
        now_sat = link_round >= 0
        newly = touched[now_sat > self.sat_mask[touched]]
        self.sat_mask[touched] = now_sat
        committed.update(touched.tolist())
        self.counters["refills"] += 1
        self.counters["downstream_flows"] += len(region)
        self.counters["downstream_max"] = max(self.counters["downstream_max"],
                                              len(region))
        self.counters["levels_refilled"] += int(levels.size)
        # expansion frontier: newly saturated links whose member lists reach
        # outside the region — their outside flows' cached rates may now be
        # wrong (either squeezed below or left under the new bottleneck rate)
        mask = state.active_mask
        expand: List[int] = []
        for link in newly.tolist():
            alive = [s for s in self.link_members.get(link, ()) if mask[s]]
            self.link_members[link] = alive
            if any(s not in region for s in alive):
                expand.append(link)
        return member, expand

    def _full_refresh(self, active: np.ndarray, rates_out: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """One full fill over the live pool entries; refresh every per-link cache.

        Fills the same live entries, over slot ids and through the same
        kernel, as :func:`repro.sim.allocstate._full_fill`, but keeps the
        kernel's saturation rounds, so the saturated set comes out of the fill
        itself instead of being re-derived against a tolerance.  Returns the live
        ``(links, slots)`` entries it filled.
        """
        entry_links, entry_slots = self.state.live_entries()
        touched, compressed = _compress_links(entry_links, self.capacities.shape[0])
        fair, link_round, _ = leveled_fill(entry_slots, self.state.num_flows,
                                           self.capacities[touched], compressed,
                                           touched.size)
        np.minimum(fair, self.line_rate, out=fair)
        rates_out[active] = self._rates[active] = fair[active]
        load = np.bincount(compressed, weights=fair[entry_slots], minlength=touched.size)
        self.link_load[:] = 0.0
        self.link_load[touched] = load
        self.link_util[:] = 0.0
        self.link_util[touched] = load / self.capacities[touched]
        self.sat_mask[:] = False
        self.sat_mask[touched] = link_round >= 0
        return entry_links, entry_slots

    def _rebuild(self, active: np.ndarray, rates_out: np.ndarray) -> np.ndarray:
        """Full fill plus an exact structure rebuild (member lists pruned)."""
        links, slots = self._full_refresh(active, rates_out)
        members: Dict[int, List[int]] = {}
        if links.size:
            # distinct (link, slot) pairs, sorted by link and then slot
            span = int(active[-1]) + 1
            pairs = np.unique(links * span + slots)
            glinks = pairs // span
            bounds = (np.flatnonzero(np.diff(glinks)) + 1).tolist()
            gslots = (pairs % span).tolist()
            for link, lo, hi in zip(glinks[[0] + bounds].tolist(), [0] + bounds,
                                    bounds + [len(gslots)]):
                members[link] = gslots[lo:hi]
        self.link_members = members
        self._ops = 0
        self._needs_rebuild = False
        self.counters["rebuilds"] += 1
        return active
