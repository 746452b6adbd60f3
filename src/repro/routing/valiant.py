"""Valiant load balancing (VLB) routing (Table I's classic non-minimal baseline).

Each candidate path routes minimally to a random intermediate router and minimally on
to the destination, which doubles the average path length but spreads load obliviously
— useful as an upper bound on path stretch and as a building block for adversarial
comparisons.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.cache import kernels_for
from repro.routing.base import MultiPathRouting
from repro.topologies.base import Topology


class ValiantRouting(MultiPathRouting):
    """VLB: minimal path to a random intermediate, then minimal path to the target."""

    name = "valiant"

    def __init__(self, topology: Topology, num_paths: int = 4, seed: int = 0) -> None:
        super().__init__(topology)
        if num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        self.num_paths = num_paths
        self._rng = np.random.default_rng(seed)
        self._kernels = kernels_for(topology)
        self._cache: Dict[Tuple[int, int], List[List[int]]] = {}
        self._adj = topology.adjacency()

    def _distances_from(self, router: int) -> np.ndarray:
        # Shared-cache distance row (VLB queries distances from every intermediate,
        # which the batched CSR kernels serve without per-instance recomputation).
        return self._kernels.distances_from(router)

    def _minimal_path(self, source: int, target: int) -> Optional[List[int]]:
        dist = self._distances_from(target)
        if dist[source] < 0:
            return None
        path = [source]
        current = source
        while current != target:
            candidates = [v for v in self._adj[current] if dist[v] == dist[current] - 1]
            if not candidates:
                return None
            current = candidates[int(self._rng.integers(0, len(candidates)))]
            path.append(current)
        return path

    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        if source_router == target_router:
            return [[source_router]]
        key = (source_router, target_router)
        if key in self._cache:
            return self._cache[key]
        paths: List[List[int]] = []
        seen = set()
        attempts = 0
        while len(paths) < self.num_paths and attempts < 10 * self.num_paths:
            attempts += 1
            intermediate = int(self._rng.integers(self.topology.num_routers))
            first = self._minimal_path(source_router, intermediate)
            second = self._minimal_path(intermediate, target_router)
            if first is None or second is None:
                continue
            combined = first + second[1:]
            # discard candidates that revisit a router (would loop in practice)
            if len(set(combined)) != len(combined):
                continue
            tup = tuple(combined)
            if tup in seen:
                continue
            seen.add(tup)
            paths.append(combined)
        if not paths:
            direct = self._minimal_path(source_router, target_router)
            if direct:
                paths.append(direct)
        self._cache[key] = paths
        return paths
