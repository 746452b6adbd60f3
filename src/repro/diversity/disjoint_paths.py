"""Length-limited counts of edge-disjoint paths (the paper's CDP measure, §IV-B1).

``c_l(A, B)`` is defined as the smallest number of edges whose removal disconnects
every path of length at most ``l`` from the router set ``A`` to the router set ``B``.
Exact computation of maximum length-bounded disjoint path sets is NP-hard for
``l >= 4``, so — exactly like the paper — we use a Ford–Fulkerson-flavoured greedy
heuristic: repeatedly find a path of length at most ``l`` (shortest first, via BFS),
remove its edges, and count how many paths were removed before ``h_l(A) ∩ B`` becomes
empty.  The result is a lower bound that is tight for the regimes of interest (it
equals the true value whenever shortest augmenting paths do not interfere, which holds
for small ``l``).

This module is a thin topology-level wrapper over the *batched* greedy kernel in
:mod:`repro.kernels.disjoint`: the Figure 7 distribution runs all sampled pairs
through one vectorized call, and the per-pair/per-set entry points run as
single-item batches.  The scalar search the repository previously used lives on as
:func:`repro.kernels.reference.greedy_disjoint_paths_python`, and the equivalence
suite pins the kernel against it pair-for-pair.  Pruning bounds (distances to the
target set in the unmutated topology, served by the shared path cache) are handed to
the kernel; they provably never change results.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.cache import kernels_for
from repro.kernels.disjoint import batch_disjoint_paths
from repro.topologies.base import Topology

Edge = Tuple[int, int]


def count_disjoint_paths_sets(topology: Topology, sources: Iterable[int],
                              targets: Iterable[int], max_len: int,
                              return_paths: bool = False):
    """Greedy count of edge-disjoint paths of length <= ``max_len`` from A to B.

    Mirrors the paper's pruned Ford–Fulkerson variant: repeatedly remove the edges of a
    shortest qualifying path until no path of length at most ``max_len`` remains.

    Parameters
    ----------
    topology:
        Router graph.
    sources, targets:
        Router sets ``A`` and ``B``.  Routers present in both sets yield an (ignored)
        zero-length path and do not contribute to the count.
    max_len:
        Maximum number of hops ``l``.
    return_paths:
        If True return ``(count, paths)`` with the concrete vertex paths found.
    """
    src = set(int(s) for s in sources)
    dst = set(int(t) for t in targets)
    if not src or not dst:
        raise ValueError("source and target sets must be non-empty")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    overlap = src & dst
    # A router in both sets constitutes an unremovable 0-length connection; the paper's
    # definition only considers designated distinct routers, so we simply skip them.
    effective_src = src - overlap if src - overlap else src
    effective_dst = dst - overlap if dst - overlap else dst
    if effective_src & effective_dst:
        return (0, []) if return_paths else 0
    # Lower bounds on the hop distance to the target set, from the shared CSR cache.
    # Removing edges only increases distances, so these bounds stay admissible across
    # the greedy iterations; pairs farther apart than max_len terminate immediately.
    kernels = kernels_for(topology)
    if len(effective_dst) == 1:
        target_distance = kernels.distances_from(next(iter(effective_dst)))
    else:
        target_distance = kernels.multi_source_distances(sorted(effective_dst))
    best = min((int(target_distance[s]) for s in effective_src
                if target_distance[s] >= 0), default=-1)
    if best < 0 or best > max_len:
        return (0, []) if return_paths else 0
    item = [(sorted(effective_src), sorted(effective_dst))]
    bounds = np.asarray(target_distance)[None, :]
    if return_paths:
        counts, paths = batch_disjoint_paths(kernels.csr, item, max_len,
                                             bounds=bounds, return_paths=True)
        return int(counts[0]), paths[0]
    counts = batch_disjoint_paths(kernels.csr, item, max_len, bounds=bounds)
    return int(counts[0])


def count_disjoint_paths(topology: Topology, source: int, target: int, max_len: int,
                         return_paths: bool = False):
    """``c_l({s}, {t})`` — disjoint path count between two routers (see module docs)."""
    if source == target:
        raise ValueError("source and target must differ")
    return count_disjoint_paths_sets(topology, [source], [target], max_len,
                                     return_paths=return_paths)


def count_disjoint_paths_pairs(topology: Topology,
                               pairs: Sequence[Tuple[int, int]],
                               max_len: int) -> np.ndarray:
    """``c_l(s, t)`` for many router pairs in one batched kernel call.

    All pairs advance through the greedy search simultaneously (one vectorized BFS
    sweep per level across the whole batch); returns one count per pair, identical
    to calling :func:`count_disjoint_paths` pair by pair.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    pair_arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    if pair_arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if (pair_arr[:, 0] == pair_arr[:, 1]).any():
        raise ValueError("source and target must differ")
    kernels = kernels_for(topology)
    source_rows, target_rows = kernels.pair_distance_rows(pair_arr)
    return batch_disjoint_paths(kernels.csr, pair_arr, max_len,
                                bounds=target_rows, source_bounds=source_rows)


def disjoint_path_distribution(topology: Topology, max_len: int, num_samples: int = 200,
                               rng: Optional[np.random.Generator] = None,
                               pairs: Optional[Sequence[Tuple[int, int]]] = None) -> np.ndarray:
    """Distribution of ``c_l(s, t)`` over sampled router pairs (paper Figure 7).

    Returns an array of counts, one per sampled pair.  Pairs are sampled uniformly at
    random from the endpoint-hosting routers (all routers except for fat trees, where
    only edge switches exchange traffic), unless an explicit ``pairs`` sequence is given.
    The whole sample runs as one batched kernel call.
    """
    rng = rng or np.random.default_rng(0)
    candidates = list(topology.endpoint_routers)
    if len(candidates) < 2:
        raise ValueError("need at least two endpoint-hosting routers")
    if pairs is None:
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        sampled: List[Tuple[int, int]] = []
        while len(sampled) < num_samples:
            s, t = rng.choice(len(candidates), size=2)
            if s != t:
                sampled.append((candidates[int(s)], candidates[int(t)]))
        pairs = sampled
    return count_disjoint_paths_pairs(topology, pairs, max_len)
