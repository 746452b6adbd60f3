"""ECMP / shortest-path multipath routing (the paper's routing performance baseline).

ECMP spreads flows over *equal-cost* (i.e. minimal) paths only.  On topologies with a
single shortest path per router pair (Slim Fly, Dragonfly) it degenerates to
single-path routing, which is exactly the deficiency FatPaths addresses.

The candidate set returned here is a set of edge-disjoint-preferring minimal paths,
capped at ``max_paths`` (hardware ECMP groups are similarly capped).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.kernels.cache import kernels_for
from repro.routing.base import MultiPathRouting
from repro.topologies.base import Topology


class EcmpRouting(MultiPathRouting):
    """Equal-cost multipath: up to ``max_paths`` minimal paths per router pair."""

    name = "ecmp"

    def __init__(self, topology: Topology, max_paths: int = 8, seed: int = 0) -> None:
        super().__init__(topology)
        if max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        self.max_paths = max_paths
        self._rng = np.random.default_rng(seed)
        self._kernels = kernels_for(topology)
        self._cache: Dict[Tuple[int, int], List[List[int]]] = {}

    def _distances_from(self, target: int) -> np.ndarray:
        # Read-only row served by the shared path cache (one CSR BFS per distinct
        # target across *all* consumers of this topology, not per routing instance).
        return self._kernels.distances_from(target)

    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        if source_router == target_router:
            return [[source_router]]
        key = (source_router, target_router)
        if key in self._cache:
            return self._cache[key]
        # plain ints: the walk below compares one per neighbour
        dist_to_target = self._distances_from(target_router).tolist()
        if dist_to_target[source_router] < 0:
            self._cache[key] = []
            return []
        adj = self.topology.adjacency()
        paths: List[List[int]] = []
        used_edges = set()

        for _ in range(self.max_paths):
            # Greedy walk along the shortest-path DAG, preferring unused links; stop if
            # the only progress requires reusing a link already claimed by another path
            # and at least one path exists (keeps paths edge-disjoint where possible).
            path = [source_router]
            current = source_router
            reused = False
            while current != target_router:
                closer = dist_to_target[current] - 1
                next_candidates = [v for v in adj[current] if dist_to_target[v] == closer]
                fresh = [v for v in next_candidates
                         if (min(current, v), max(current, v)) not in used_edges]
                pool = fresh if fresh else next_candidates
                if not pool:
                    path = None
                    break
                if not fresh:
                    reused = True
                # the draw rng.choice(pool) makes, without its array conversion
                current = pool[int(self._rng.integers(0, len(pool)))]
                path.append(current)
            if path is None:
                break
            if reused and paths:
                break
            for u, v in zip(path, path[1:]):
                used_edges.add((min(u, v), max(u, v)))
            if path in paths:
                break
            paths.append(path)
            if reused:
                break
        self._cache[key] = paths
        return paths
