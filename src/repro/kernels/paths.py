"""Vectorized path-counting kernels and distance-matrix-driven path helpers.

Shortest-path counting uses the classical observation that the number of walks of
length ``l`` between two vertices is ``(A**l)[s, t]`` and that, at ``l = dist(s, t)``,
walks and shortest paths coincide (a cycle cannot shorten a walk).  Instead of the
legacy per-entry bookkeeping, the kernels below run a dense-by-sparse matrix power
iteration and record counts with a single boolean mask per length — one masked
accumulation sweep per distance value.

The helpers at the bottom answer routing-style queries (shortest-path DAG membership,
length-bounded reachability) directly from a cached distance matrix instead of
re-running BFS per query.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.kernels.csr import CSRGraph


def walk_count_matrix(csr: CSRGraph, length: int) -> np.ndarray:
    """``A**length`` — walks of exactly ``length`` steps between all vertex pairs."""
    if length < 1:
        raise ValueError("length must be >= 1")
    adj = csr.scipy_adjacency(dtype=np.int64)
    result = np.asarray(adj.todense(), dtype=np.int64)
    for _ in range(length - 1):
        result = np.asarray(adj @ result)
    return result


def shortest_path_counts(csr: CSRGraph, distances: Optional[np.ndarray] = None) -> np.ndarray:
    """Counts of *shortest* paths between all vertex pairs (0 on the diagonal).

    ``distances`` may pass a precomputed hop-distance matrix (``-1`` unreachable) to
    avoid recomputation; the counts are read off the walk-count power iteration with
    one ``distances == l`` mask per level.
    """
    n = csr.num_nodes
    if distances is None:
        distances = csr.distance_matrix()
    counts = np.zeros((n, n), dtype=np.int64)
    max_dist = int(distances.max()) if distances.size else 0
    if max_dist < 1:
        return counts
    adj = csr.scipy_adjacency(dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for level in range(1, max_dist + 1):
        power = np.asarray(adj @ power)
        mask = distances == level
        counts[mask] = power[mask]
    return counts


def next_hop_sets_from_distances(csr: CSRGraph, distances: np.ndarray,
                                 max_len: int) -> List[List[Set[int]]]:
    """Next-hop sets for every (source, target) pair considering walks ``<= max_len``.

    A neighbour ``v`` of ``s`` starts a walk ``s -> v -> ... -> t`` of total length at
    most ``max_len`` iff ``dist(v, t) <= max_len - 1`` (the shortest walk suffices; any
    longer qualifying walk implies the shortest one also qualifies).  This reduces the
    legacy set-semiring O(n^3·deg) propagation to one boolean comparison per
    (neighbour, target) pair against the cached distance matrix.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = csr.num_nodes
    result: List[List[Set[int]]] = [[set() for _ in range(n)] for _ in range(n)]
    budget = max_len - 1
    for s in range(n):
        neighbours = csr.indices[csr.indptr[s]:csr.indptr[s + 1]]
        if neighbours.size == 0:
            continue
        # reach[j, t] True iff neighbour j starts a qualifying walk to t
        nd = distances[neighbours]
        reach = (nd >= 0) & (nd <= budget)
        reach[:, s] = False
        row = result[s]
        for j, v in enumerate(neighbours):
            hop = int(v)
            for t in np.flatnonzero(reach[j]):
                row[t].add(hop)
    return result


def shortest_path_dag_children(distances_to_target: np.ndarray, csr: CSRGraph,
                               node: int) -> np.ndarray:
    """Neighbours of ``node`` that lie one hop closer to the target (DAG successors)."""
    neighbours = csr.indices[csr.indptr[node]:csr.indptr[node + 1]]
    if neighbours.size == 0:
        return neighbours
    return neighbours[distances_to_target[neighbours] == distances_to_target[node] - 1]


def reachable_within(distances_row: np.ndarray, target: int, max_len: int) -> bool:
    """True iff the pair is connected by a path of at most ``max_len`` hops."""
    d = int(distances_row[target])
    return 0 <= d <= max_len
