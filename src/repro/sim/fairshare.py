"""Max-min fair bandwidth allocation over directed links (water filling).

Given a set of flows, each pinned to a path (a list of directed links), and per-link
capacities, the max-min fair allocation raises every flow's rate uniformly until a link
saturates, freezes the flows crossing that link, and repeats — the classical
progressive-filling algorithm.  This models ideal congestion control (per-flow
fairness), which is what the paper's NDP-style transport approximates.

Two implementations of the same rounds live here.  :func:`max_min_fair_rates` is
the scalar reference's form: the link/flow incidence is a sparse CSR matrix and each
filling round is a sparse mat-vec.  :func:`leveled_fill` is the pooled form every
allocator of the vectorized engine fills through (:mod:`repro.sim.allocstate`,
:mod:`repro.sim.bottleneck`): it works on parallel entry arrays over the touched
links, evaluates the same per-round float expressions, and also reports which round
saturated which link.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def max_min_fair_rates(paths_links: Sequence[Sequence[int]], link_capacities: np.ndarray,
                       epsilon: float = 1e-12) -> np.ndarray:
    """Max-min fair rates for flows pinned to link paths.

    Parameters
    ----------
    paths_links:
        For each flow, the list of link indices it traverses.  Flows with an empty link
        list (source and destination on the same router) are given infinite rate — the
        caller handles them separately.
    link_capacities:
        Capacity of each link (same unit as the returned rates, e.g. bytes/s).
    epsilon:
        Numerical slack when deciding link saturation.

    Returns
    -------
    ndarray of per-flow rates.
    """
    num_flows = len(paths_links)
    capacities = np.asarray(link_capacities, dtype=np.float64)
    num_links = capacities.shape[0]
    if num_flows == 0:
        return np.zeros(0)
    rows: List[int] = []
    cols: List[int] = []
    empty = np.zeros(num_flows, dtype=bool)
    for f, links in enumerate(paths_links):
        if not links:
            empty[f] = True
            continue
        for link in links:
            if not 0 <= link < num_links:
                raise ValueError(f"flow {f} references unknown link {link}")
            rows.append(link)
            cols.append(f)
    rates = np.zeros(num_flows)
    rates[empty] = np.inf
    if not rows:
        return rates

    incidence = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(num_links, num_flows))
    unfixed = ~empty
    remaining = capacities.astype(np.float64).copy()

    for _ in range(num_links + 1):
        if not unfixed.any():
            break
        load = incidence @ unfixed.astype(np.float64)   # unfixed flows per link
        active_links = load > 0
        if not active_links.any():
            break
        headroom = np.full(num_links, np.inf)
        headroom[active_links] = remaining[active_links] / load[active_links]
        increment = float(headroom.min())
        if increment <= 0:
            increment = 0.0
        rates[unfixed] += increment
        remaining = remaining - load * increment
        saturated = active_links & (remaining <= epsilon * capacities + epsilon)
        if not saturated.any():
            # no link saturates (should not happen with finite capacities); freeze all
            break
        # flows crossing a saturated link become fixed
        saturated_load = np.asarray(incidence[saturated].sum(axis=0)).ravel()
        unfixed = unfixed & ~(saturated_load > 0)
    return rates


def leveled_fill(entry_flows: np.ndarray, num_flows: int, touched_caps: np.ndarray,
                 compressed: np.ndarray, num_touched: int, epsilon: float = 1e-12
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Progressive filling instrumented with the bottleneck structure it produces.

    Operates on a *compressed* incidence: ``compressed`` maps each entry to a
    touched-link index ``0..num_touched-1`` and ``touched_caps`` holds those links'
    capacities (the form ``np.unique(entry_links, return_inverse=True)``
    returns).  The filling rounds evaluate the same float expressions as
    :func:`max_min_fair_rates`, so the rates are bit-identical to it for any
    entry order; on top of the rates this returns *which round saturated what*:

    ``(rates, link_round, level_rates)`` — ``link_round[l]`` is the round at
    which touched link ``l`` saturated (-1 if it keeps slack), and
    ``level_rates[k]`` the cumulative fair-share level of round ``k`` — the rate
    every flow bottlenecked at a level-``k`` link receives.  These are the
    saturation tiers of the bottleneck structure
    (:mod:`repro.sim.bottleneck`); :func:`bottleneck_levels` is the public
    uncompressed wrapper.

    Capacities must be finite.  Three exact shortcuts keep each round to a
    dozen array operations:

    * the loads are recounted from a per-flow ``unfixed`` weight (1.0 until the
      flow freezes), so a round freezes flows with one scatter;
    * a link whose load reaches zero retires with ``remaining = +inf``, so its
      headroom reads ``+inf`` and the round minimum is one ``argmin`` over all
      touched links, with no active-link mask;
    * a flow's rate is the level of the first round that saturated one of its
      links (levels never decrease), gathered once after the last round.  That
      level is the same sequential float sum the reference's
      ``rates[unfixed] += increment`` accumulates.

    Every flow index in ``0..num_flows-1`` is filled, and one with no entries
    gets the final level; pass live entries only.
    """
    link_round = np.full(num_touched, -1, dtype=np.int64)
    if compressed.size == 0 or num_touched == 0:
        return np.zeros(num_flows), link_round, np.zeros(0)
    level_rates = np.empty(num_touched + 1)
    rounds = 0
    remaining = touched_caps.copy()
    saturation_threshold = epsilon * touched_caps + epsilon
    unfixed = np.ones(num_flows)
    level = 0.0
    # every productive round permanently saturates at least one touched link (its
    # load then stays zero), so ``num_touched`` bounds the round count
    for rnd in range(num_touched + 1):
        load = np.bincount(compressed, weights=unfixed[entry_flows],
                           minlength=num_touched)
        np.putmask(remaining, load == 0, np.inf)
        headroom = remaining / load
        k = headroom.argmin()
        increment = float(headroom[k])
        if increment == np.inf:
            break    # every touched link has retired
        if increment <= 0:
            increment = 0.0
        level += increment
        remaining -= load * increment
        saturated = remaining <= saturation_threshold
        # the argmin link saturates up to float slack, so ``any`` rarely runs
        if not saturated[k] and not saturated.any():
            # no link saturates (should not happen with finite capacities); freeze all
            break
        level_rates[rnd] = level
        rounds = rnd + 1
        # a saturated link loses all its flows this round, so it saturates once
        link_round[saturated] = rnd
        unfixed[entry_flows.compress(saturated[compressed])] = 0.0
    # links that keep slack (round -1) read the final level
    level_rates[rounds] = level
    rates = np.full(num_flows, level)
    np.minimum.at(rates, entry_flows, level_rates[:rounds + 1][link_round][compressed])
    return rates, link_round, level_rates[:rounds]


def bottleneck_levels(entry_links: np.ndarray, entry_flows: np.ndarray,
                      link_capacities: np.ndarray, epsilon: float = 1e-12
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Bottleneck level of every link under max-min progressive filling.

    The *bottleneck structure* of an allocation tiers the saturated links by the
    filling round that saturated them: level-0 links saturate first (their flows
    get the lowest fair share), level-1 links saturate once level-0 flows are
    frozen, and so on.  Max-min coupling propagates only *downstream* through
    this structure — an event on a level-``k`` link can never change the rates
    of flows frozen strictly upstream without touching their links — which is
    what the load-aware allocator (:mod:`repro.sim.bottleneck`) exploits.

    Parameters mirror :func:`bottleneck_certificate`: parallel ``entry_links``/
    ``entry_flows`` arrays (one entry per link a flow crosses) and per-link
    capacities.  Returns ``(link_levels, level_rates)``: ``link_levels`` has one
    entry per link — its saturation round, or -1 for links that keep slack
    (including links with no entries at all) — and ``level_rates[k]`` is the
    fair-share rate of flows bottlenecked at level ``k`` (strictly increasing
    except for zero-capacity tiers, which saturate at level 0 with rate 0).
    """
    entry_links = np.asarray(entry_links, dtype=np.int64)
    entry_flows = np.asarray(entry_flows, dtype=np.int64)
    capacities = np.asarray(link_capacities, dtype=np.float64)
    num_links = capacities.shape[0]
    link_levels = np.full(num_links, -1, dtype=np.int64)
    if entry_links.size == 0:
        return link_levels, np.zeros(0)
    if entry_links.min() < 0 or entry_links.max() >= num_links:
        raise ValueError("entries reference an unknown link index")
    num_flows = int(entry_flows.max()) + 1
    touched, compressed = np.unique(entry_links, return_inverse=True)
    _, link_round, level_rates = leveled_fill(
        entry_flows, num_flows, capacities[touched], compressed, touched.size,
        epsilon=epsilon)
    link_levels[touched] = link_round
    return link_levels, level_rates


def incidence_components(entry_links: np.ndarray, entry_flows: np.ndarray
                         ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of a (link, flow) incidence graph.

    The incidence is given as parallel entry arrays (one entry per link a flow
    crosses — the pooled form the vectorized engine maintains).  Two flows belong to
    the same component iff they are connected through shared links; max-min fair
    allocation decomposes exactly over these components (flows in different
    components share no link), which is what lets the incremental allocator refill
    only the components an event touched
    (:class:`repro.sim.allocstate.IncrementalAllocator`).

    Returns
    -------
    ``(num_components, touched_links, link_labels, flows, flow_labels)``:
    ``touched_links``/``flows`` are the sorted distinct link/flow ids appearing in
    the entries and ``link_labels``/``flow_labels`` their component labels in
    ``0..num_components-1``.  Every component contains at least one link and one
    flow by construction.
    """
    entry_links = np.asarray(entry_links, dtype=np.int64)
    entry_flows = np.asarray(entry_flows, dtype=np.int64)
    touched, link_idx = np.unique(entry_links, return_inverse=True)
    flows, flow_idx = np.unique(entry_flows, return_inverse=True)
    if touched.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return 0, touched, empty, flows, empty
    n = touched.size + flows.size
    bipartite = csr_matrix(
        (np.ones(entry_links.size), (link_idx, touched.size + flow_idx)), shape=(n, n))
    num_components, labels = connected_components(bipartite, directed=False)
    return (num_components, touched, labels[:touched.size], flows,
            labels[touched.size:])


def bottleneck_certificate(entry_links: np.ndarray, entry_flows: np.ndarray,
                           rates: np.ndarray, link_capacities: np.ndarray,
                           rtol: float = 1e-9) -> np.ndarray:
    """Flows violating the max-min optimality certificate (empty == certified).

    A rate vector is max-min fair iff it is feasible (no link over capacity) and
    every flow crosses a *bottleneck* link: a saturated link on which no other flow
    receives a higher rate — raising the flow would then necessarily lower a flow
    that is no faster.  The check is vectorized over the same entry arrays the
    engine's allocators fill (``rates`` is indexed by the flow ids appearing in
    ``entry_flows``) and is the acceptance gate of the incremental allocator's
    property suite.

    Returns the array of offending flow ids: flows on an over-capacity link or
    without a bottleneck, within relative tolerance ``rtol``.
    """
    entry_links = np.asarray(entry_links, dtype=np.int64)
    entry_flows = np.asarray(entry_flows, dtype=np.int64)
    capacities = np.asarray(link_capacities, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if entry_links.size == 0:
        return np.empty(0, dtype=np.int64)
    entry_rates = rates[entry_flows]
    loads = np.bincount(entry_links, weights=entry_rates,
                        minlength=capacities.shape[0])
    link_max_rate = np.zeros(capacities.shape[0])
    np.maximum.at(link_max_rate, entry_links, entry_rates)
    slack = capacities * rtol + rtol
    overloaded = loads > capacities + slack
    saturated = loads >= capacities - slack
    # per entry: does this entry sit on a bottleneck for its flow?
    entry_ok = saturated[entry_links] & (entry_rates >= link_max_rate[entry_links]
                                         - slack[entry_links])
    flows = np.unique(entry_flows)
    has_bottleneck = np.zeros(int(flows.max()) + 1, dtype=bool)
    np.logical_or.at(has_bottleneck, entry_flows, entry_ok)
    on_overloaded = np.zeros(int(flows.max()) + 1, dtype=bool)
    np.logical_or.at(on_overloaded, entry_flows, overloaded[entry_links])
    bad = ~has_bottleneck[flows] | on_overloaded[flows]
    return flows[bad]
