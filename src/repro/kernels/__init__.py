"""Vectorized CSR graph-kernel engine with a shared path cache.

The subsystem replaces the seed repository's per-source pure-Python BFS loops with
batched NumPy kernels over a CSR adjacency, computed once per distinct graph and
shared by every consumer through a process-wide :class:`~repro.kernels.cache.PathCache`:

* :mod:`repro.kernels.csr` — the :class:`CSRGraph` representation and batched
  level-synchronous BFS (distances, APSP, multi-source, connectivity).
* :mod:`repro.kernels.paths` — shortest-path/walk counting via masked matrix-power
  accumulation, plus distance-matrix-driven routing helpers.
* :mod:`repro.kernels.disjoint` — batched greedy disjoint-path counting (the paper's
  CDP measure): many (source-set, target-set) items advance one BFS level per
  vectorized sweep.
* :mod:`repro.kernels.nexthop` — vectorized random-minimal next-hop forwarding
  tables (Listing 3) built from cached distance matrices.
* :mod:`repro.kernels.cache` — graph fingerprints, :class:`GraphKernels` (lazy cached
  results per graph, including per-seed next-hop tables) and the global
  :class:`PathCache` keyed by (topology fingerprint, layer index).
* :mod:`repro.kernels.reference` — the scalar implementations (seed code plus the
  deterministic greedy-CDP / next-hop tie-break specifications), preserved as the
  trusted baseline for the equivalence tests and speedup benchmarks.
"""

from repro.kernels.cache import (
    GraphKernels,
    PathCache,
    fingerprint_edges,
    global_cache,
    kernels_for,
    layer_fingerprint,
    layer_kernels,
)
from repro.kernels.csr import CSRGraph, edges_connected, edges_connected_batch
from repro.kernels.disjoint import batch_disjoint_paths
from repro.kernels.nexthop import next_hop_table
from repro.kernels.paths import (
    next_hop_sets_from_distances,
    reachable_within,
    shortest_path_counts,
    shortest_path_dag_children,
    walk_count_matrix,
)

__all__ = [
    "CSRGraph",
    "GraphKernels",
    "PathCache",
    "batch_disjoint_paths",
    "edges_connected",
    "edges_connected_batch",
    "fingerprint_edges",
    "global_cache",
    "kernels_for",
    "layer_fingerprint",
    "layer_kernels",
    "next_hop_sets_from_distances",
    "next_hop_table",
    "reachable_within",
    "shortest_path_counts",
    "shortest_path_dag_children",
    "walk_count_matrix",
]
