"""Batched greedy disjoint-path counting (the paper's CDP measure, vectorized).

The paper's ``c_l(A, B)`` statistic asks how many edge-disjoint paths of length at
most ``l`` connect router set ``A`` to router set ``B``.  Exact length-bounded
disjoint-path maximisation is NP-hard for ``l >= 4``, so — exactly like the paper —
the computation is a unit-capacity max-flow style greedy: repeatedly find a shortest
qualifying augmenting path with BFS, saturate (remove) it, and count how many
augmentations succeed.  Residual (reverse) arcs are deliberately omitted: they would
let the flow decompose into walks that violate the length bound, which is precisely
the reason the bounded problem is hard.  The greedy count is a lower bound that is
tight whenever shortest augmenting paths do not interfere (small ``l``, the regime of
every figure).

This module batches that greedy search over *many independent (source-set,
target-set) items per call*:

* Each item is restricted to its **relevant vertex set** ``R = {v : d0(A, v) +
  d0(v, B) <= max_len}`` (distances in the unmutated graph).  The length-bound
  pruning below never lets the search leave ``R`` in any greedy round — edge
  removal only increases distances — so the restriction is exact, and it shrinks the
  per-item state from ``N^2`` to ``|R|^2`` (a large constant factor on low-diameter
  topologies, where ``R`` is roughly the union of near-minimal paths).
* Every item owns a mutable dense boolean adjacency over its (padded) relevant
  vertices; one call advances every item's BFS one level per vectorized sweep — a
  flat gather of all frontier rows across the whole batch followed by one
  segment-wise ``bitwise_or.reduceat`` — so the per-level memory traffic scales
  with the actual frontier size instead of ``B * K^2``.
* Augmenting paths are reconstructed scalar-wise from the per-item depth arrays
  (a few index operations per path vertex) and saturated in place.
* Greedy rounds are **adaptively round-robined** rather than chunk-synchronous:
  once at least half of a block's items have retired (no further augmenting path),
  the survivors are compacted into a smaller block — fewer rows and, where the
  survivors' relevant sets allow, a narrower padding width — so a few
  high-diversity items no longer drag every finished item through their remaining
  sweeps.  Items are independent and survivor state is copied verbatim, so results
  are provably unchanged (pinned in ``tests/kernels/``).

Capacities are unit *edge* capacities (the paper's CDP): each augmentation
removes the undirected edges of its path.

Tie-breaking is deterministic and documented — level-synchronous BFS, the parent of
a newly discovered vertex is its *smallest-index* discovered neighbour one level
closer, and the augmenting path ends at the *smallest-index* target reached at the
first level that reaches any target.  Relevant-set restriction keeps local vertex
order ascending in global indices, so the tie-breaks agree with the full-graph
search.  :func:`repro.kernels.reference.greedy_disjoint_paths_python` implements
the identical rule scalar-wise; the equivalence suite pins the two implementations
against each other pair-for-pair on every topology generator and on random
degenerate graphs.

Length-bound pruning (from ``bounds``, per-vertex lower bounds on the remaining
distance to the targets in the unmutated graph) never changes results: a vertex
discovered at depth ``d`` with ``d + bounds[v] > max_len`` cannot lie on any
qualifying path, nor can the minimum-parent reconstruction route through it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.csr import CSRGraph

Edge = Tuple[int, int]

#: Per-chunk budget (entries) for the ``(B, K, K)`` dense boolean adjacency block.
_CHUNK_ENTRY_BUDGET = 1 << 24


def _normalize_items(items) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``items`` as a list of (sources, targets) sorted unique int arrays.

    Accepts an ``(B, 2)`` array or list of ``(source, target)`` router pairs, or
    an iterable of ``(source_iterable, target_iterable)`` set items (mixing plain
    ints and iterables per element is fine).
    """
    if isinstance(items, np.ndarray) and items.ndim == 2 and items.shape[1] == 2:
        return [(items[i, :1].astype(np.int64), items[i, 1:].astype(np.int64))
                for i in range(items.shape[0])]

    def as_array(routers) -> np.ndarray:
        """One router or a router iterable as a sorted unique int64 array."""
        if isinstance(routers, (int, np.integer)):
            return np.asarray([int(routers)], dtype=np.int64)
        if not isinstance(routers, np.ndarray):
            routers = np.asarray(list(routers), dtype=np.int64)
        return np.unique(routers.astype(np.int64, copy=False))

    return [(as_array(sources), as_array(targets)) for sources, targets in items]


def _distance_rows(csr: CSRGraph,
                   vertex_sets: Sequence[np.ndarray]) -> np.ndarray:
    """Unmutated-graph distances to each item's vertex set, batched where possible.

    Single-vertex sets run as one batched BFS; genuine multi-vertex sets fall back
    to one multi-source sweep each.
    """
    n = csr.num_nodes
    rows = np.empty((len(vertex_sets), n), dtype=np.int64)
    singles = [i for i, vs in enumerate(vertex_sets) if vs.size == 1]
    if singles:
        batch = csr.bfs_distances_batch([int(vertex_sets[i][0]) for i in singles])
        rows[singles] = batch
    for i, vs in enumerate(vertex_sets):
        if vs.size != 1:
            rows[i] = csr.multi_source_distances(vs)
    return rows


def _greedy_chunk(adjs: np.ndarray, src: np.ndarray, dst: np.ndarray, max_len: int,
                  bounds: np.ndarray, want_paths: bool,
                  vertex_maps: Optional[List[np.ndarray]],
                  vcounts: Optional[np.ndarray] = None) -> Tuple[np.ndarray, List[List[List[int]]]]:
    """Run the batched greedy search on one chunk of (locally indexed) items.

    ``adjs`` is the mutable ``(B, K, K)`` boolean adjacency block (one private copy
    per item, zero-padded beyond each item's vertex count), ``src``/``dst`` are
    ``(B, K)`` boolean masks and ``bounds`` carries admissible remaining-distance
    lower bounds (``-1`` where the targets are unreachable).
    ``vertex_maps`` translates local to global indices for path output.

    Rounds are *adaptively* round-robined: whenever at least half of the block's
    items have retired (found no further augmenting path), the surviving items are
    compacted into a smaller block — fewer rows, and a narrower ``K`` when the
    per-item vertex counts (``vcounts``) of the survivors allow it.  Items are
    mutually independent and each survivor's state is copied verbatim (the padding
    sliced off is all-False/-1 by construction), so retirement is invisible to the
    results; it only stops finished items from riding along in every sweep of a
    chunk whose slowest item needs many more greedy rounds.
    """
    num_items, k = src.shape
    counts = np.zeros(num_items, dtype=np.int64)
    paths: List[List[List[int]]] = [[] for _ in range(num_items)]
    active = src.any(axis=1) & dst.any(axis=1) & ~(src & dst).any(axis=1)
    prune_out = (bounds < 0) | (bounds > max_len)
    #: row -> original chunk item, updated on every compaction
    orig = np.arange(num_items, dtype=np.int64)
    depth = np.empty((num_items, k), dtype=np.int64)
    flat_rows = adjs.reshape(num_items * k, k)
    while active.any():
        live = int(active.sum())
        if live <= orig.size // 2:
            # ---- retire finished items: compact survivors into a smaller block
            keep = np.flatnonzero(active)
            if vcounts is not None:
                k = max(1, int(vcounts[orig[keep]].max()))
            adjs = np.ascontiguousarray(adjs[keep, :k, :k])
            src, dst = src[keep, :k], dst[keep, :k]
            bounds = bounds[keep, :k]
            prune_out = prune_out[keep, :k]
            orig = orig[keep]
            active = np.ones(live, dtype=bool)
            depth = np.empty((live, k), dtype=np.int64)
            flat_rows = adjs.reshape(live * k, k)
        # ---- one batched BFS round: all active items advance level by level
        depth.fill(-1)
        depth[src] = 0
        searching = active.copy()
        chosen = np.full(orig.size, -1, dtype=np.int64)
        frontier = src & searching[:, None]
        reach = np.zeros((orig.size, k), dtype=bool)
        for level in range(1, max_len + 1):
            # Expand all items' frontiers in one flat sweep: gather every frontier
            # vertex's adjacency row across the batch, then OR the rows of each item
            # together segment-wise.  Traffic scales with the frontier size.
            item_of, vert_of = np.nonzero(frontier)
            if item_of.size == 0:
                break
            rows = flat_rows[item_of * k + vert_of]
            seg_starts = np.flatnonzero(
                np.r_[True, item_of[1:] != item_of[:-1]])
            reach.fill(False)
            reach[item_of[seg_starts]] = np.bitwise_or.reduceat(
                rows, seg_starts, axis=0)
            # depth + remaining-distance bound must fit in the length budget
            new = (reach & (depth < 0) & searching[:, None] & ~prune_out
                   & (bounds <= max_len - level))
            if not new.any():
                break
            depth[new] = level
            hit = new & dst
            reached = hit.any(axis=1) & searching
            if reached.any():
                # argmax over a boolean row = first True = minimum-index target
                chosen[reached] = hit[reached].argmax(axis=1)
                searching &= ~reached
            frontier = new & searching[:, None]
            if not searching.any():
                break
        # ---- reconstruct and saturate the found paths, vectorized across items:
        # walk all found items back one parent step at a time (paths are at most
        # max_len steps), then batch the edge saturation writes.
        found = np.flatnonzero(chosen >= 0)
        if found.size:
            target = chosen[found]
            length = depth[found, target]  # per-item path length (>= 1)
            max_steps = int(length.max())
            # verts[:, j] is the j-th vertex counted backwards from the target
            verts = np.full((found.size, max_steps + 1), -1, dtype=np.int64)
            verts[:, 0] = target
            for step in range(1, max_steps + 1):
                walking = np.flatnonzero(length >= step)
                items = found[walking]
                cur = verts[walking, step - 1]
                # minimum-index discovered neighbour one level closer, per item
                # (argmax over a boolean row = its first True entry)
                candidates = (adjs[items, :, cur]
                              & (depth[items] == (depth[items, cur] - 1)[:, None]))
                verts[walking, step] = candidates.argmax(axis=1)
            counts[orig[found]] += 1
            if want_paths:
                for i, b in enumerate(found):
                    item = int(orig[b])
                    local = vertex_maps[item] if vertex_maps is not None else None
                    path = [int(v) if local is None else int(local[v])
                            for v in verts[i, length[i]::-1]]
                    paths[item].append(path)
            # saturate the path's edges
            for step in range(max_steps):
                mask = length > step
                items, u, v = found[mask], verts[mask, step], verts[mask, step + 1]
                adjs[items, u, v] = False
                adjs[items, v, u] = False
        active = chosen >= 0
    return counts, paths


def batch_disjoint_paths(csr: CSRGraph, items, max_len: int, *,
                         bounds: Optional[np.ndarray] = None,
                         source_bounds: Optional[np.ndarray] = None,
                         return_paths: bool = False):
    """Greedy edge-disjoint path counts for many independent items in one batched call.

    Parameters
    ----------
    csr:
        The (unmutated) graph; every item starts from a private copy of its
        relevant subgraph.
    items:
        Either an ``(B, 2)`` integer array of ``(source, target)`` router pairs or an
        iterable of ``(sources, targets)`` pairs of router iterables (the set form of
        the paper's ``c_l(A, B)``).  Items whose source and target sets intersect
        count zero (a shared router is an unremovable zero-length connection, which
        the paper's definition excludes).
    max_len:
        Maximum path length ``l`` in hops (``>= 1``).
    bounds:
        Optional ``(B, N)`` per-item distances to the item's target set in the
        unmutated graph (``-1`` for unreachable).  Pass rows of the cached distance
        matrix to avoid recomputation; computed via batched BFS when omitted.
    source_bounds:
        Optional ``(B, N)`` per-item distances *from* the item's source set,
        mirroring ``bounds``; used only to build the relevant vertex sets.
    return_paths:
        If True, also return the list of augmenting vertex paths per item
        (global router indices).

    Returns
    -------
    counts, or ``(counts, paths)``:
        ``counts`` is a ``(B,)`` int64 array; ``paths[b]`` lists item ``b``'s
        disjoint vertex paths in discovery order.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    normalized = _normalize_items(items)
    num_items = len(normalized)
    n = csr.num_nodes
    counts = np.zeros(num_items, dtype=np.int64)
    all_paths: List[List[List[int]]] = [[] for _ in range(num_items)]
    if num_items == 0:
        return (counts, all_paths) if return_paths else counts
    for sources, targets in normalized:
        if sources.size == 0 or targets.size == 0:
            raise ValueError("source and target sets must be non-empty")
        for arr in (sources, targets):
            if arr[0] < 0 or arr[-1] >= n:
                raise ValueError("router index out of range")
    for name, arr in (("bounds", bounds), ("source_bounds", source_bounds)):
        if arr is not None and np.asarray(arr).shape != (num_items, n):
            raise ValueError(f"{name} must have shape ({num_items}, {n})")
    if bounds is None:
        bounds = _distance_rows(csr, [targets for _, targets in normalized])
    if source_bounds is None:
        source_bounds = _distance_rows(csr, [srcs for srcs, _ in normalized])
    bounds = np.asarray(bounds)
    source_bounds = np.asarray(source_bounds)
    # Relevant vertex sets: the pruned search provably never leaves them.
    relevant = ((bounds >= 0) & (source_bounds >= 0)
                & (source_bounds + bounds <= max_len))
    vertex_lists = [np.flatnonzero(relevant[i]) for i in range(num_items)]
    dense = csr.dense_adjacency  # memoised on the graph; sliced per item below
    # Chunk so the padded (chunk, K, K) block stays within the entry budget; item
    # order is preserved, so results are independent of the chunking.
    pos = 0
    while pos < num_items:
        kmax = 1
        stop = pos
        while stop < num_items:
            kmax_next = max(kmax, vertex_lists[stop].size, 1)
            if stop > pos and (stop - pos + 1) * kmax_next * kmax_next > _CHUNK_ENTRY_BUDGET:
                break
            kmax = kmax_next
            stop += 1
        size = stop - pos
        adjs = np.zeros((size, kmax, kmax), dtype=bool)
        src = np.zeros((size, kmax), dtype=bool)
        dst = np.zeros((size, kmax), dtype=bool)
        chunk_bounds = np.full((size, kmax), -1, dtype=np.int64)
        maps: List[np.ndarray] = []
        for i in range(size):
            item = pos + i
            verts = vertex_lists[item]
            maps.append(verts)
            if verts.size == 0:
                continue
            local = np.full(n, -1, dtype=np.int64)
            local[verts] = np.arange(verts.size)
            if verts.size == n:  # whole graph relevant: plain copy beats np.ix_
                adjs[i, :n, :n] = dense
            else:
                adjs[i, :verts.size, :verts.size] = dense[np.ix_(verts, verts)]
            sources, targets = normalized[item]
            src[i, local[sources][local[sources] >= 0]] = True
            dst[i, local[targets][local[targets] >= 0]] = True
            chunk_bounds[i, :verts.size] = bounds[item, verts]
        chunk_counts, chunk_paths = _greedy_chunk(
            adjs, src, dst, max_len, chunk_bounds, return_paths, maps,
            vcounts=np.asarray([m.size for m in maps], dtype=np.int64))
        counts[pos:stop] = chunk_counts
        if return_paths:
            all_paths[pos:stop] = chunk_paths
        pos = stop
    if return_paths:
        return counts, all_paths
    return counts


