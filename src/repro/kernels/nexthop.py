"""Vectorized next-hop forwarding-table construction (paper §V-A, Listing 3).

FatPaths forwards destination-based: within one layer the routing function
``sigma(s, t)`` returns a neighbour of ``s`` that lies on a minimal path towards
``t`` *inside that layer*, chosen uniformly at random when several neighbours make
progress ("choose a random first step port, if there are multiple options").

The seed implementation looped over sources in Python, drawing one neighbour
permutation per source.  This module builds the whole dense ``(N, N)`` table with
array operations instead:

1.  draw one random key per directed CSR slot (a single ``rng.random(m)`` call);
2.  order each source's neighbour slots by key (stable argsort per CSR segment) —
    the resulting per-source slot permutation *is* the random visiting order of the
    scalar algorithm;
3.  scan the permuted slots: for rank ``r = 0, 1, ...`` take every source's rank-r
    neighbour at once and let it claim, in one masked in-place assignment over the
    whole ``(sources, N)`` plane, the still-unassigned destinations it makes
    minimal progress towards (``dist(v, t) == dist(s, t) - 1``).

The scan loops over *ports* (max degree iterations), never over sources, and is
chunked over source rows so the working set stays within a fixed entry budget.  :func:`repro.kernels.reference.next_hop_table_python` implements the
identical semantics with the scalar per-source loop, and the equivalence suite pins
the two bit-for-bit across topology generators, sparsified layers and random
degenerate graphs.

Unlike the seed implementation, pairs with no path inside the layer are left
``unreachable`` (the seed's float comparison ``inf == inf - 1`` spuriously assigned
next hops for disconnected pairs; those entries were unused by path extraction but
inflated the §VI-B table-entry counts).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.kernels.csr import CSRGraph

#: Sentinel for "no next hop" (mirrors ``repro.core.forwarding.UNREACHABLE``).
UNREACHABLE = -1

#: Budget (in entries) for the per-rank ``(chunk, N)`` working planes of the slot
#: scan — each of the ``max_degree`` rank iterations gathers and masks blocks of
#: this size, sequentially, so peak memory is a small multiple of the budget.
_CHUNK_ENTRY_BUDGET = 1 << 22

#: Seed material accepted by :func:`next_hop_table` (anything ``default_rng`` takes).
SeedLike = Union[int, tuple, np.random.SeedSequence, None]


def slot_ranks(csr: CSRGraph, keys: np.ndarray) -> np.ndarray:
    """Per-source permutation ranks of the CSR neighbour slots, from random keys.

    ``keys`` holds one float per directed CSR slot.  The returned array gives every
    slot its position in the key-ascending ordering *of its own source's slice* —
    exactly the random neighbour visiting order of the scalar algorithm (stable, so
    equal keys keep CSR order).
    """
    m = csr.indices.size
    if keys.shape != (m,):
        raise ValueError(f"keys must have shape ({m},)")
    degrees = np.diff(csr.indptr).astype(np.int64)
    segment = np.repeat(np.arange(csr.num_nodes, dtype=np.int64), degrees)
    order = np.lexsort((keys, segment))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(m, dtype=np.int64) - csr.indptr[segment[order]]
    return ranks


def next_hop_table(csr: CSRGraph, distances: np.ndarray, seed: SeedLike) -> np.ndarray:
    """Dense random-minimal next-hop table for one graph (vectorized Listing 3).

    Parameters
    ----------
    csr:
        The (layer sub)graph adjacency.
    distances:
        Its all-pairs hop-distance matrix — int with ``-1`` or float with ``inf``
        for unreachable pairs (both cached forms work and yield the same table).
    seed:
        Seed material for ``np.random.default_rng``; equal seeds give equal tables.

    Returns
    -------
    table:
        ``table[s, t]`` is the next router from ``s`` towards ``t`` (``table[s, s]
        == s``), or ``UNREACHABLE`` when ``t`` has no path from ``s`` in this graph.
    """
    n = csr.num_nodes
    distances = np.asarray(distances)
    if distances.shape != (n, n):
        raise ValueError(f"distances must have shape ({n}, {n})")
    table = np.full((n, n), UNREACHABLE, dtype=np.int32)
    m = csr.indices.size
    if m:
        # Normalize distances to a compact signed int with -1 for unreachable: hop
        # counts are small, and in int space the progress test needs no finiteness
        # mask — ``want`` is -1 only towards the own diagonal (where every
        # neighbour sits at distance 1) and -2 towards unreachable destinations
        # (below every entry).
        dist_dtype = np.int16 if n < np.iinfo(np.int16).max else np.int32
        if distances.dtype.kind == "f":
            dist = np.where(np.isfinite(distances), distances, -1).astype(dist_dtype)
        else:
            dist = distances.astype(dist_dtype)
        rng = np.random.default_rng(seed)
        ranks = slot_ranks(csr, rng.random(m))
        degrees = np.diff(csr.indptr).astype(np.int64)
        max_degree = int(degrees.max())
        # padded per-source slot tables, reordered so column r holds every source's
        # rank-r neighbour (the permuted scan order)
        slot = np.arange(max_degree, dtype=np.int64)[None, :]
        valid = slot < degrees[:, None]
        flat = np.minimum(csr.indptr[:-1, None] + slot, m - 1)
        neighbours = np.where(valid, csr.indices[flat], 0)
        order = np.argsort(np.where(valid, ranks[flat], max_degree), axis=1,
                           kind="stable")
        by_rank = np.take_along_axis(neighbours, order, axis=1)
        valid_by_rank = np.take_along_axis(valid, order, axis=1)
        chunk = max(1, _CHUNK_ENTRY_BUDGET // max(1, n))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            rows = table[start:stop]
            want = dist[start:stop] - dist_dtype(1)
            for r in range(max_degree):
                hop = by_rank[start:stop, r]
                claim = ((dist[hop] == want) & (rows == UNREACHABLE)
                         & valid_by_rank[start:stop, r, None])
                np.copyto(rows, hop[:, None].astype(np.int32), where=claim)
    np.fill_diagonal(table, np.arange(n, dtype=np.int32))
    return table
