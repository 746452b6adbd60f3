"""Shared path cache: fingerprinted graphs -> lazily computed kernel results.

Every ``Topology`` (and every ``Layer`` subtopology) maps to a *fingerprint* — a
blake2b digest of ``(num_routers, edges)``.  The process-wide :class:`PathCache`
stores one :class:`GraphKernels` per fingerprint, each of which lazily computes and
retains BFS distance rows, the all-pairs distance matrix (int and float forms) and
shortest-path counts.  Consumers that used to re-run identical BFS/APSP work per
figure (routing schemes, diversity metrics, forwarding-table construction) now share
one computation per distinct graph.

Layer results are keyed by ``(topology fingerprint, layer index, layer edge digest)``
so two layer sets with equal edges but different provenance still share entries while
same-index layers with different sampled edges never collide.

The cache is per-process (worker processes of the parallel experiment runner each
build their own) and LRU-bounded by number of graphs; ``clear()`` resets it, which the
benchmark suite uses to measure cold-vs-warm behaviour.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.kernels.csr import CSRGraph, Edge


def fingerprint_edges(num_nodes: int, edges: Sequence[Edge]) -> str:
    """Stable digest of an undirected graph given its normalized edge list."""
    h = hashlib.blake2b(digest_size=16)
    h.update(int(num_nodes).to_bytes(8, "little"))
    edge_arr = np.asarray(list(edges), dtype=np.int64)
    h.update(np.ascontiguousarray(edge_arr).tobytes())
    return h.hexdigest()


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: Per-graph bound on retained next-hop tables (one per distinct seed).  Real
#: workloads use one or two seeds per layer; the cap keeps a multi-seed sweep over
#: a single cached graph from growing one (N, N) table per seed without limit.
_MAX_NEXT_HOP_TABLES = 8


class GraphKernels:
    """Lazily computed, cached kernel results for one fingerprinted graph.

    All returned arrays are read-only views of the cache — callers needing a private
    mutable copy must ``.copy()`` them (``Topology.bfs_distances`` does, to preserve
    the legacy contract of returning fresh arrays).
    """

    def __init__(self, csr: CSRGraph, fingerprint: str) -> None:
        """Wrap ``csr`` (fingerprinted as ``fingerprint``) with empty lazy caches."""
        self.csr = csr
        self.fingerprint = fingerprint
        self._rows: Dict[int, np.ndarray] = {}
        self._matrix: Optional[np.ndarray] = None
        self._matrix_float: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._connected: Optional[bool] = None
        self._next_hops: Dict[tuple, np.ndarray] = {}
        self._aux: Dict[tuple, object] = {}

    # -------------------------------------------------------------- distances
    def distances_from(self, source: int) -> np.ndarray:
        """Hop distances from ``source`` (read-only row, ``-1`` unreachable)."""
        source = int(source)
        if self._matrix is not None:
            return self._matrix[source]
        row = self._rows.get(source)
        if row is None:
            row = _readonly(self.csr.bfs_distances_batch([source])[0])
            self._rows[source] = row
        return row

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distance matrix (read-only, ``-1`` unreachable)."""
        if self._matrix is None:
            self._matrix = _readonly(self.csr.distance_matrix())
            self._rows.clear()
        return self._matrix

    def pair_distance_rows(self, pairs) -> tuple:
        """``(source_rows, target_rows)`` BFS distance rows for router pairs.

        Reuses the cached APSP when it is warm — or computes it when the batch
        touches a comparable number of rows anyway — and otherwise runs two
        batched BFS sweeps over just the unique endpoints, so a small pair batch
        on a large topology never forces the full ``O(N^2)`` matrix.  The rows
        serve as admissible pruning bounds for
        :func:`repro.kernels.disjoint.batch_disjoint_paths` (removal only
        increases distances); ``source_rows[i, t]`` also reads off each pair's
        hop distance.
        """
        pair_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        matrix = self._matrix
        if matrix is None and 2 * pair_arr.shape[0] >= self.csr.num_nodes:
            matrix = self.distance_matrix()
        if matrix is not None:
            return matrix[pair_arr[:, 0]], matrix[pair_arr[:, 1]]
        unique_src, inv_src = np.unique(pair_arr[:, 0], return_inverse=True)
        unique_dst, inv_dst = np.unique(pair_arr[:, 1], return_inverse=True)
        return (self.csr.bfs_distances_batch(unique_src)[inv_src],
                self.csr.bfs_distances_batch(unique_dst)[inv_dst])

    def distance_matrix_float(self) -> np.ndarray:
        """The distance matrix as float64 with ``inf`` for unreachable pairs."""
        if self._matrix_float is None:
            dist = self.distance_matrix()
            mat = dist.astype(np.float64)
            mat[dist < 0] = np.inf
            self._matrix_float = _readonly(mat)
        return self._matrix_float

    def multi_source_distances(self, sources: Sequence[int]) -> np.ndarray:
        """Distance to the nearest of ``sources`` per vertex (uncached, cheap)."""
        return self.csr.multi_source_distances(sources)

    # ------------------------------------------------------------ derived data
    def shortest_path_counts(self) -> np.ndarray:
        """Counts of shortest paths between all pairs (read-only)."""
        if self._counts is None:
            from repro.kernels.paths import shortest_path_counts
            self._counts = _readonly(shortest_path_counts(self.csr, self.distance_matrix()))
        return self._counts

    def next_hop_table(self, seed) -> np.ndarray:
        """The random-minimal next-hop table for ``seed`` (read-only, cached per seed).

        Built by the vectorized :func:`repro.kernels.nexthop.next_hop_table` from
        this graph's cached distance matrix.  ``seed`` is an int or a tuple of
        ints (forwarding tables pass ``(base_seed, layer_index)``), keyed by its
        values: an int and its 1-tuple are the same ``SeedSequence`` entropy, so
        they share a key.  Equal seeds return the same cached array, so repeated
        forwarding builds over identical layers cost one kernel invocation (per
        seed) instead of one per build.
        """
        from repro.kernels.nexthop import next_hop_table

        key = tuple(int(s) for s in np.atleast_1d(seed))
        table = self._next_hops.get(key)
        if table is None:
            while len(self._next_hops) >= _MAX_NEXT_HOP_TABLES:
                self._next_hops.pop(next(iter(self._next_hops)))  # oldest seed
            table = _readonly(next_hop_table(self.csr, self.distance_matrix(), seed))
            self._next_hops[key] = table
        return table

    def is_connected(self) -> bool:
        """Connectivity of the graph (computed once)."""
        if self._connected is None:
            self._connected = self.csr.is_connected()
        return self._connected

    def aux(self, key: tuple, builder):
        """Memoised auxiliary per-graph object, built at most once per ``key``.

        Lets consumers attach derived structures that should live and die with the
        cache entry — the simulation engine stores its per-topology link space here
        (:func:`repro.sim.engine.link_space_for`), so every simulator over the same
        graph shares one build.  Values exposing an ``nbytes`` attribute count
        towards the entry's retained bytes (and hence the cache's eviction budget).
        """
        value = self._aux.get(key)
        if value is None:
            value = builder()
            self._aux[key] = value
        return value

    def retained_nbytes(self) -> int:
        """Bytes pinned by this entry's cached results (grows as results are computed)."""
        total = self.csr.indptr.nbytes + self.csr.indices.nbytes
        dense = self.csr.__dict__.get("dense_adjacency")  # memoised lazily
        if dense is not None:
            total += dense.nbytes
        total += sum(row.nbytes for row in self._rows.values())
        total += sum(table.nbytes for table in self._next_hops.values())
        total += sum(int(getattr(value, "nbytes", 0)) for value in self._aux.values())
        for arr in (self._matrix, self._matrix_float, self._counts):
            if arr is not None:
                total += arr.nbytes
        return total


class PathCache:
    """LRU cache of :class:`GraphKernels`, keyed by graph fingerprint.

    Eviction is bounded both by entry count (``maxsize``) and by retained bytes
    (``max_bytes``).  Entries grow *after* insertion as distance matrices and path
    counts are lazily computed, so the byte budget is re-checked on every insertion
    and periodically on hits (every 64th, keeping hot lookups O(1)); the most
    recently used entry is never evicted (its caller holds a reference).
    """

    def __init__(self, maxsize: int = 128, max_bytes: int = 512 << 20) -> None:
        """Create an empty cache bounded by ``maxsize`` entries / ``max_bytes`` bytes."""
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, GraphKernels]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _evict(self) -> None:
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        if len(self._entries) > 1:
            total = sum(e.retained_nbytes() for e in self._entries.values())
            while total > self.max_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                total -= evicted.retained_nbytes()

    def kernels(self, num_nodes: int, edges: Sequence[Edge],
                fingerprint: Optional[str] = None) -> GraphKernels:
        """The kernels for the graph ``(num_nodes, edges)``, computed at most once."""
        key = fingerprint or fingerprint_edges(num_nodes, edges)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            # entries grow lazily after insertion, so the byte budget is re-checked
            # on hits too — but only periodically, to keep hot lookups O(1)
            if self.hits % 64 == 0:
                self._evict()
            return entry
        self.misses += 1
        entry = GraphKernels(CSRGraph.from_edges(num_nodes, edges), key)
        self._entries[key] = entry
        self._evict()
        return entry

    def mutated(self, num_nodes: int, base_edges: Sequence[Edge],
                removed: Iterable[Edge]) -> GraphKernels:
        """The kernels for ``base_edges`` minus ``removed`` (either orientation).

        An ordinary :meth:`kernels` lookup keyed by the surviving edge set, so
        every route to the same graph shares one entry.
        """
        def norm(edges):
            return {(min(int(u), int(v)), max(int(u), int(v))) for u, v in edges}

        return self.kernels(num_nodes, sorted(norm(base_edges) - norm(removed)))

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters (cold-start state)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Counters snapshot: graphs held, hits, misses, retained bytes."""
        return {"graphs": len(self._entries), "hits": self.hits, "misses": self.misses,
                "retained_bytes": sum(e.retained_nbytes() for e in self._entries.values())}


#: Process-wide cache instance shared by all consumers.
_GLOBAL_CACHE = PathCache()


def global_cache() -> PathCache:
    """The process-wide :class:`PathCache`."""
    return _GLOBAL_CACHE


def kernels_for(topology) -> GraphKernels:
    """Kernels for a :class:`~repro.topologies.base.Topology` via the global cache."""
    return _GLOBAL_CACHE.kernels(topology.num_routers, topology.edges,
                                 fingerprint=topology.fingerprint())


def layer_fingerprint(topology, layer_index: int, layer_edges: Sequence[Edge]) -> str:
    """Cache key for one layer: (topology fingerprint, layer index, edge digest)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(topology.fingerprint().encode())
    h.update(int(layer_index).to_bytes(8, "little", signed=True))
    h.update(fingerprint_edges(topology.num_routers, layer_edges).encode())
    return h.hexdigest()


def layer_kernels(topology, layer) -> GraphKernels:
    """Kernels for one layer's subgraph, shared through the global cache.

    ``layer`` needs ``index`` and ``edges`` attributes (``repro.core.layers.Layer``).
    """
    edges = sorted(layer.edges)
    key = layer_fingerprint(topology, layer.index, edges)
    return _GLOBAL_CACHE.kernels(topology.num_routers, edges, fingerprint=key)
