"""Adjacency-matrix path counting and next-hop tables (paper Appendix B.A).

Two classical matrix-multiplication constructions, reproduced for completeness and used
to cross-validate the BFS-based code:

* ``A**l`` counts walks of exactly ``l`` steps between every vertex pair (Theorem 1).
* A "set semiring" product propagates *next-hop sets*: after ``l`` iterations, entry
  ``(s, t)`` holds the out-neighbours of ``s`` that start a walk of length <= ``l`` to
  ``t`` — exactly the information a forwarding table needs.

Both are served by the vectorized kernels in :mod:`repro.kernels.paths`: walk counts
run as sparse-by-dense matrix powers, shortest-path counts as one masked accumulation
sweep per distance level against the cached distance matrix, and the next-hop sets are
read directly off that matrix (a neighbour starts a qualifying walk iff its cached
distance to the target fits the remaining budget).  The legacy scalar constructions
live on in :mod:`repro.kernels.reference` and the equivalence tests pin these kernels
to them.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.kernels.cache import kernels_for
from repro.kernels.paths import next_hop_sets_from_distances, walk_count_matrix
from repro.topologies.base import Topology


def count_paths_matrix(topology: Topology, length: int) -> np.ndarray:
    """Number of walks of exactly ``length`` steps between every router pair.

    Note that, as in the paper, walks may revisit vertices; for the shortest-path length
    of a pair this equals the number of shortest paths (cycles cannot shorten a walk).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return walk_count_matrix(kernels_for(topology).csr, length)


def count_shortest_paths(topology: Topology) -> np.ndarray:
    """Matrix of counts of *shortest* paths between all router pairs.

    Served from the shared path cache: the cached all-pairs distance matrix masks one
    matrix-power accumulation per distance level.  The diagonal is zero.
    """
    return kernels_for(topology).shortest_path_counts().copy()


def next_hop_sets(topology: Topology, max_len: int) -> List[List[Set[int]]]:
    """Next-hop sets for every (source, destination) pair considering paths <= ``max_len``.

    ``result[s][t]`` is the set of neighbours ``v`` of ``s`` such that some walk
    ``s -> v -> ... -> t`` of total length at most ``max_len`` exists.  Computed from
    the cached distance matrix (see :func:`repro.kernels.paths.next_hop_sets_from_distances`);
    result identical to the appendix's set-semiring propagation.
    """
    kernels = kernels_for(topology)
    return next_hop_sets_from_distances(kernels.csr, kernels.distance_matrix(), max_len)
