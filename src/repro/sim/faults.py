"""Link/switch failure and recovery events for the flow-level simulators.

The paper motivates layered routing by its ability to route *around* trouble
(degraded operation on low-diameter topologies, §II); this module supplies the
dynamic-topology half of that story: a declarative :class:`FaultSchedule` attached
to :class:`repro.sim.simconfig.FlowSimConfig` drops and restores router-router
links mid-run.  Both simulator implementations consume the same resolved schedule
— the scalar reference (:mod:`repro.sim.reference`) is the pinned behavioural
specification, the vectorized engine (:mod:`repro.sim.engine`) mirrors it
record-for-record (``tests/sim/test_engine_equivalence.py``).

Fault semantics (the spec both implementations follow; see also
``docs/resilience.md``):

* Fault epochs are timestamps in the event loop.  A pending fault time wins ties
  against arrivals and completions, counts as an event, and — like every other
  event — is followed by path-switch evaluation and a rate recompute.
* Applying an epoch updates the failed-edge set, then *displaces* affected flows
  in ascending arrival order.  A flow whose current path survives is untouched.
* A displaced flow is re-placed through ``selector.initial_path`` over the
  *surviving* subset of its original candidates (positions map back to candidate
  indices), so the selector's RNG stream is consumed per flow in arrival order —
  exactly replayable by both implementations.
* When no candidate survives, the flow takes a deterministic *detour*: the
  minimal-index shortest path on the surviving graph
  (:func:`detour_router_path`, no RNG in path construction; the selector is still
  consulted with the single detour candidate, consistent with every other
  placement).  If source and target routers are disconnected the flow *stalls*
  (rate zero, excluded from allocation) until a restore revives it.
* Any placement that changes the flow's link list counts one path switch and
  resets the flowlet byte counter; entering a stall changes nothing.

Same-router flows use the synthetic empty-link candidate and are immune to
faults.  Restoring an edge that is not failed (or failing one twice, e.g. via an
overlapping switch outage) is an idempotent no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]

#: Actions a :class:`FaultEvent` may carry.
FAULT_ACTIONS = ("fail", "restore")

#: One resolved fault epoch: ``(time, ((action, edge), ...))``.
FaultEpoch = Tuple[float, Tuple[Tuple[str, Edge], ...]]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure or recovery of a link or a whole switch.

    Exactly one of ``link`` (an undirected router-router edge, any orientation)
    and ``switch`` (a router id whose incident edges all fail/restore together)
    must be given.  ``action`` is ``"fail"`` or ``"restore"``.
    """

    time: float
    action: str = "fail"
    link: Optional[Edge] = None
    switch: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate and normalize (link edges are stored with ``u < v``)."""
        if not np.isfinite(self.time) or self.time < 0:
            raise ValueError(f"fault time must be finite and >= 0, got {self.time}")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; available: {FAULT_ACTIONS}")
        if (self.link is None) == (self.switch is None):
            raise ValueError("exactly one of link= and switch= must be given")
        if self.link is not None:
            u, v = (int(self.link[0]), int(self.link[1]))
            if u == v:
                raise ValueError(f"fault link ({u},{v}) is a self loop")
            object.__setattr__(self, "link", (min(u, v), max(u, v)))


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, hashable sequence of :class:`FaultEvent` entries.

    Attach one via ``FlowSimConfig(faults=...)``.  Events need not be sorted;
    :meth:`resolve` orders them by time (stable) and groups same-time events into
    epochs against a concrete topology.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        """Coerce ``events`` to a tuple and type-check its members."""
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"FaultSchedule events must be FaultEvent, got {event!r}")
        object.__setattr__(self, "events", events)

    def __bool__(self) -> bool:
        """True iff the schedule carries any events."""
        return bool(self.events)

    @classmethod
    def link_outage(cls, edges: Sequence[Edge], fail_time: float,
                    restore_time: Optional[float] = None) -> "FaultSchedule":
        """Fail ``edges`` at ``fail_time`` and (optionally) restore them later."""
        events = [FaultEvent(time=fail_time, action="fail", link=e) for e in edges]
        if restore_time is not None:
            if restore_time <= fail_time:
                raise ValueError("restore_time must come after fail_time")
            events += [FaultEvent(time=restore_time, action="restore", link=e)
                       for e in edges]
        return cls(events=tuple(events))

    @classmethod
    def switch_outage(cls, switches: Sequence[int], fail_time: float,
                      restore_time: Optional[float] = None) -> "FaultSchedule":
        """Fail every edge incident to ``switches`` at ``fail_time`` (and restore)."""
        events = [FaultEvent(time=fail_time, action="fail", switch=int(s))
                  for s in switches]
        if restore_time is not None:
            if restore_time <= fail_time:
                raise ValueError("restore_time must come after fail_time")
            events += [FaultEvent(time=restore_time, action="restore", switch=int(s))
                       for s in switches]
        return cls(events=tuple(events))

    def resolve(self, topology) -> List[FaultEpoch]:
        """Validate against ``topology`` and group events into per-time epochs.

        Switch events expand to all edges incident to the router (in sorted edge
        order); link events must reference existing topology edges.  Returns
        ``[(time, ((action, edge), ...)), ...]`` sorted by time.
        """
        edge_set = set(topology.edges)
        deltas: List[Tuple[float, str, Edge]] = []
        for event in self.events:
            if event.link is not None:
                if event.link not in edge_set:
                    raise ValueError(
                        f"fault link {event.link} is not an edge of {topology.name}")
                deltas.append((event.time, event.action, event.link))
            else:
                router = int(event.switch)
                if not 0 <= router < topology.num_routers:
                    raise ValueError(f"fault switch {router} out of range")
                incident = sorted(e for e in topology.edges if router in e)
                if not incident:
                    raise ValueError(f"fault switch {router} has no incident edges")
                deltas.extend((event.time, event.action, e) for e in incident)
        deltas.sort(key=lambda d: d[0])   # stable: same-time order preserved
        epochs: List[FaultEpoch] = []
        for time, action, edge in deltas:
            if epochs and epochs[-1][0] == time:
                epochs[-1] = (time, epochs[-1][1] + ((action, edge),))
            else:
                epochs.append((time, ((action, edge),)))
        return epochs


def sample_link_faults(topology, fraction: float, fail_time: float,
                       restore_time: Optional[float],
                       rng: np.random.Generator) -> FaultSchedule:
    """A schedule failing a random ``fraction`` of links (and restoring them).

    At least one link always fails; sampling is without replacement from the
    topology's normalized edge list, so the schedule is deterministic given
    ``rng`` — the property the ``failures`` scenario's per-family streams rely on.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    count = max(1, int(round(fraction * topology.num_edges)))
    chosen = rng.choice(topology.num_edges, size=count, replace=False)
    edges = [topology.edges[int(i)] for i in sorted(chosen)]
    return FaultSchedule.link_outage(edges, fail_time, restore_time=restore_time)


# ----------------------------------------------------------------- detour paths
def bfs_distances_subgraph(adjacency: Sequence[Sequence[int]],
                           failed_edges: Set[Edge], source: int) -> List[int]:
    """Scalar BFS hop distances from ``source`` avoiding ``failed_edges``.

    The reference simulator's detour spec: plain level-synchronous BFS over the
    surviving subgraph (``-1`` unreachable).  BFS distances are unique, so the
    engine may substitute any correct recomputation — in particular the cached
    surviving-graph kernels of :mod:`repro.kernels.dirtyregion` — and the
    resulting detours are identical.
    """
    dist = [-1] * len(adjacency)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt: List[int] = []
        for x in frontier:
            for y in adjacency[x]:
                edge = (x, y) if x < y else (y, x)
                if dist[y] < 0 and edge not in failed_edges:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def detour_router_path(adjacency: Sequence[Sequence[int]], failed_edges: Set[Edge],
                       source: int, target: int,
                       distances: Sequence[int]) -> Optional[List[int]]:
    """The deterministic detour: minimal-index shortest path on the surviving graph.

    ``distances`` are hop distances *from* ``source`` on the surviving subgraph
    (any correct computation — see :func:`bfs_distances_subgraph`).  The path is
    built by walking back from ``target``, at each step taking the lowest-indexed
    surviving neighbour one hop closer to the source; no RNG is involved, so both
    simulator implementations construct the identical path.  Returns ``None``
    when the routers are disconnected.
    """
    if source == target:
        return [source]
    if int(distances[target]) < 0:
        return None
    path = [target]
    x = target
    while x != source:
        want = int(distances[x]) - 1
        for y in adjacency[x]:       # ascending: the minimal-index predecessor
            edge = (x, y) if x < y else (y, x)
            if edge not in failed_edges and int(distances[y]) == want:
                path.append(y)
                x = y
                break
        else:   # pragma: no cover - distances guarantee a predecessor exists
            return None
    path.reverse()
    return path
