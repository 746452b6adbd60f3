"""Compressed-sparse-row adjacency and vectorized batched graph kernels.

This module is the computational core of :mod:`repro.kernels`: an immutable CSR
adjacency representation (``indptr``/``indices`` arrays, both orientations of every
undirected link) plus level-synchronous batched BFS written entirely as array
operations — one sparse-matrix frontier expansion and one boolean-mask sweep per BFS
level instead of a Python queue loop per source.  The paper's topologies are
low-diameter by construction, so a whole all-pairs sweep finishes in two to four
vectorized levels.  All kernels produce results bit-identical to the legacy
per-source Python BFS in :mod:`repro.kernels.reference` (hop distances are unique, so
any correct BFS agrees), which the equivalence test suite asserts on every topology
generator.

Degenerate graphs are first-class citizens: empty edge lists, isolated routers and
single-router graphs all work without special-casing by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

Edge = Tuple[int, int]

#: Sources per batched-BFS chunk are chosen so one chunk's distance block stays
#: around this many int64 entries (keeps peak memory flat on large graphs).
_CHUNK_ENTRY_BUDGET = 1 << 22


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR adjacency of an undirected graph over ``num_nodes`` vertices.

    ``indices[indptr[u]:indptr[u+1]]`` are the (sorted) neighbours of ``u``.  Both
    orientations of every undirected edge are stored, so ``indices.size`` equals twice
    the number of undirected links.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Edge]) -> "CSRGraph":
        """Build the CSR arrays from an ``(m, 2)`` array or iterable of undirected edges."""
        if isinstance(edges, np.ndarray):
            edge_arr = edges.astype(np.int64, copy=False)
        else:
            edge_arr = np.asarray(list(edges), dtype=np.int64)
        if edge_arr.size == 0:
            return cls(num_nodes=num_nodes,
                       indptr=np.zeros(num_nodes + 1, dtype=np.int64),
                       indices=np.empty(0, dtype=np.int64))
        heads = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        tails = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        # single combined-key argsort (head-major, tail-minor) — much cheaper than
        # np.lexsort for the small-to-medium arrays this sees constantly
        order = np.argsort(heads * num_nodes + tails, kind="stable")
        heads, tails = heads[order], tails[order]
        counts = np.bincount(heads, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_nodes=num_nodes, indptr=indptr, indices=tails)

    # ------------------------------------------------------------------ basics
    @property
    def num_edges(self) -> int:
        """Number of undirected links."""
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        """Per-vertex degree (number of incident undirected links)."""
        return (self.indptr[1:] - self.indptr[:-1]).astype(np.int64)

    def scipy_adjacency(self, dtype=np.int64) -> csr_matrix:
        """The adjacency as a ``scipy.sparse.csr_matrix`` (0/1 entries)."""
        data = np.ones(self.indices.size, dtype=dtype)
        return csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                          shape=(self.num_nodes, self.num_nodes))

    @cached_property
    def _adjacency_int32(self) -> csr_matrix:
        """Memoised int32 adjacency for the batched-BFS inner loop."""
        return self.scipy_adjacency(dtype=np.int32)

    @cached_property
    def dense_adjacency(self) -> np.ndarray:
        """Memoised dense symmetric boolean adjacency (read-only).

        Built once per graph for consumers that slice dense per-item blocks
        (the batched disjoint-path kernel); callers must not mutate it.
        """
        dense = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        if self.indices.size:
            heads = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                              np.diff(self.indptr).astype(np.int64))
            dense[heads, self.indices] = True
        dense.setflags(write=False)
        return dense

    def neighbours(self, node: int) -> np.ndarray:
        """The (sorted) neighbour slice of ``node`` — a view into the CSR arrays."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    # ------------------------------------------------------------------- BFS
    def _bfs_from_seeds(self, seeds: np.ndarray) -> np.ndarray:
        """Level-synchronous BFS from per-row seed sets.

        ``seeds`` is a boolean ``(rows, num_nodes)`` array; row ``r``'s BFS starts
        simultaneously from every seeded vertex.  Each level does one sparse-matrix
        frontier expansion (``A @ frontier``) followed by one boolean-mask sweep
        against the visited set; hop distances land in an int64 array (-1 where
        unreachable).
        """
        rows, n = seeds.shape
        dist = np.full((rows, n), -1, dtype=np.int64)
        dist[seeds] = 0
        if self.indices.size == 0:
            return dist
        adj = self._adjacency_int32
        reached = seeds.copy()
        frontier = seeds.astype(np.int32)
        level = 0
        while True:
            level += 1
            # (n, rows) sparse @ dense product = per-vertex frontier-neighbour counts
            expanded = (adj @ frontier.T).T
            fresh = (expanded != 0) & ~reached
            if not fresh.any():
                return dist
            dist[fresh] = level
            reached |= fresh
            frontier = fresh.astype(np.int32)

    def bfs_distances_batch(self, sources: Sequence[int]) -> np.ndarray:
        """Hop distances from every source to every vertex, ``-1`` if unreachable.

        Returns an ``(len(sources), num_nodes)`` int64 array.  All sources advance
        one BFS level per vectorized sweep (see :meth:`_bfs_from_seeds`); duplicate
        sources are allowed and produce identical rows.
        """
        src = np.asarray(list(sources), dtype=np.int64)
        n = self.num_nodes
        if src.size == 0:
            return np.empty((0, n), dtype=np.int64)
        if (src < 0).any() or (src >= n).any():
            raise ValueError("BFS source out of range")
        if src.size == 1:
            return self.multi_source_distances(src)[None, :]
        seeds = np.zeros((src.size, n), dtype=bool)
        seeds[np.arange(src.size), src] = True
        return self._bfs_from_seeds(seeds)

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances (``-1`` for unreachable), chunked over sources."""
        n = self.num_nodes
        chunk = max(1, _CHUNK_ENTRY_BUDGET // max(1, n))
        if n <= chunk:
            return self.bfs_distances_batch(range(n))
        blocks = [self.bfs_distances_batch(range(start, min(start + chunk, n)))
                  for start in range(0, n, chunk)]
        return np.concatenate(blocks, axis=0)

    def multi_source_distances(self, sources: Sequence[int]) -> np.ndarray:
        """Distance from the *nearest* source to every vertex (one combined BFS).

        Single-row BFS keeps the frontier as an index array (ranged gather +
        ``np.unique`` per level) rather than a dense mask — much cheaper for the
        one-off connectivity and bound queries this serves.
        """
        src = np.unique(np.asarray(list(sources), dtype=np.int64))
        n = self.num_nodes
        dist = np.full(n, -1, dtype=np.int64)
        if src.size == 0:
            return dist
        if src[0] < 0 or src[-1] >= n:
            raise ValueError("BFS source out of range")
        dist[src] = 0
        frontier = src
        level = 0
        indptr, indices = self.indptr, self.indices
        while frontier.size:
            level += 1
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.cumsum(counts)
            offsets = np.arange(total, dtype=np.int64) + np.repeat(
                indptr[frontier] - (cum - counts), counts)
            neighbours = indices[offsets]
            fresh = neighbours[dist[neighbours] < 0]
            if fresh.size == 0:
                break
            dist[fresh] = level  # duplicate writes are idempotent
            frontier = np.flatnonzero(dist == level)
        return dist

    # ----------------------------------------------------------- connectivity
    def is_connected(self) -> bool:
        """True iff the graph is connected (single-vertex graphs are connected)."""
        if self.num_nodes <= 1:
            return True
        if self.num_edges == 0:
            return False
        return bool((self.multi_source_distances([0]) >= 0).all())

    def eccentricities(self, sources: Optional[Sequence[int]] = None) -> np.ndarray:
        """Max finite distance from each source; raises if any pair is unreachable."""
        rows = (self.distance_matrix() if sources is None
                else self.bfs_distances_batch(sources))
        if rows.size and (rows < 0).any():
            raise ValueError("graph is disconnected; eccentricity undefined")
        return rows.max(axis=1) if rows.size else np.zeros(0, dtype=np.int64)


#: Below this vertex count a scalar DFS beats the vectorized BFS (array setup
#: dominates); measured crossover is a few hundred vertices on current NumPy.
_SCALAR_CONNECTIVITY_CUTOFF = 512


def edges_connected(num_nodes: int, edges: Sequence[Edge]) -> bool:
    """Connectivity check on a raw edge list without building a Topology.

    Dispatches between a scalar DFS (small graphs, where per-call array setup costs
    more than the whole traversal) and the vectorized CSR BFS; both agree exactly,
    which the equivalence suite pins down.
    """
    if num_nodes <= 1:
        return True
    if num_nodes <= _SCALAR_CONNECTIVITY_CUTOFF:
        edge_list = edges.tolist() if isinstance(edges, np.ndarray) else edges
        adj: list = [[] for _ in range(num_nodes)]
        for u, v in edge_list:
            adj[u].append(v)
            adj[v].append(u)
        seen = bytearray(num_nodes)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    count += 1
                    stack.append(y)
        return count == num_nodes
    return CSRGraph.from_edges(num_nodes, edges).is_connected()


def edges_connected_batch(num_nodes: int, candidates: Sequence[Sequence[Edge]]) -> np.ndarray:
    """Connectivity of many candidate edge subsets over the same vertex set.

    All candidates are embedded as blocks of one block-diagonal graph (candidate
    ``k``'s vertices are offset by ``k * num_nodes``) and one multi-source BFS from
    every block's vertex 0 decides every candidate at once — one traversal per
    *block* of layer-resampling attempts instead of one per attempt.  The blocks
    are disjoint components, so a vertex is reached iff its own block's root
    reaches it: the result agrees exactly with :func:`edges_connected` per
    candidate.
    """
    blocks = list(candidates)
    if not blocks:
        return np.zeros(0, dtype=bool)
    if num_nodes <= 1:
        return np.ones(len(blocks), dtype=bool)
    if len(blocks) == 1:
        return np.array([edges_connected(num_nodes, blocks[0])])
    offset_edges = []
    for k, edges in enumerate(blocks):
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        offset_edges.append(arr + k * num_nodes)
    graph = CSRGraph.from_edges(num_nodes * len(blocks), np.concatenate(offset_edges, axis=0))
    dist = graph.multi_source_distances(np.arange(len(blocks), dtype=np.int64) * num_nodes)
    return (dist >= 0).reshape(len(blocks), num_nodes).all(axis=1)
