"""The FatPaths routing facade: layers + forwarding + multi-path queries.

:class:`FatPathsRouting` ties the architecture together for one topology: it builds the
layer set (Listing 1 or 2), populates per-layer forwarding tables (Listing 3) and
exposes the multi-path view consumed by the load balancer, the simulators and the
throughput LPs — "give me the candidate router paths between these two routers (or
endpoints), one per layer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import FatPathsConfig, recommended_config
from repro.core.forwarding import ForwardingTables, build_forwarding_tables
from repro.core.layers import LayerSet, build_layers
from repro.topologies.base import Topology


@dataclass
class PathStatistics:
    """Summary of the candidate paths FatPaths exposes (used in reports/tests)."""

    mean_num_paths: float
    mean_path_length: float
    mean_minimal_length: float
    mean_stretch: float
    num_pairs: int


class FatPathsRouting:
    """FatPaths layered routing over one topology.

    Parameters
    ----------
    topology:
        The router-level network.
    config:
        Layer configuration; defaults to :func:`repro.core.config.recommended_config`
        for the topology family and the given ``deployment``.
    deployment:
        "ethernet" (paper §VII-B defaults, n=9) or "tcp" (§VII-C defaults, n=4); only
        used when ``config`` is not given.
    seed:
        Overrides the config seed when provided.
    """

    def __init__(self, topology: Topology, config: Optional[FatPathsConfig] = None,
                 deployment: str = "ethernet", seed: Optional[int] = None) -> None:
        self.topology = topology
        if config is None:
            config = recommended_config(topology, deployment=deployment, seed=seed)
        elif seed is not None:
            config = config.with_(seed=seed)
        self.config = config
        self.layer_set: LayerSet = build_layers(topology, config)
        self.tables: ForwardingTables = build_forwarding_tables(self.layer_set)

    # ------------------------------------------------------------------ basic
    @property
    def num_layers(self) -> int:
        return len(self.layer_set)

    # ------------------------------------------------------------------ paths
    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        """Candidate router paths (one per layer, deduplicated) between two routers."""
        if source_router == target_router:
            return [[source_router]]
        return self.tables.paths(source_router, target_router)

    def endpoint_paths(self, source_endpoint: int, target_endpoint: int) -> List[List[int]]:
        """Candidate router paths between the routers hosting two endpoints."""
        rs = self.topology.router_of_endpoint(source_endpoint)
        rt = self.topology.router_of_endpoint(target_endpoint)
        return self.router_paths(rs, rt)

    def minimal_distance(self, source_router: int, target_router: int) -> int:
        """Shortest-path distance in the full network (layer 0)."""
        return int(self.tables.distances[0][source_router, target_router])

    # -------------------------------------------------------------- statistics
    def path_statistics(self, num_samples: int = 200,
                        rng: Optional[np.random.Generator] = None) -> PathStatistics:
        """Sampled statistics of the exposed multi-path diversity."""
        rng = rng or np.random.default_rng(0)
        candidates = list(self.topology.endpoint_routers)
        num_paths: List[int] = []
        path_lengths: List[float] = []
        minimal: List[float] = []
        pairs = 0
        while pairs < num_samples:
            s, t = rng.choice(candidates, size=2)
            if s == t:
                continue
            pairs += 1
            paths = self.router_paths(int(s), int(t))
            num_paths.append(len(paths))
            lengths = [len(p) - 1 for p in paths]
            path_lengths.append(float(np.mean(lengths)))
            minimal.append(float(self.minimal_distance(int(s), int(t))))
        mean_len = float(np.mean(path_lengths))
        mean_min = float(np.mean(minimal))
        return PathStatistics(
            mean_num_paths=float(np.mean(num_paths)),
            mean_path_length=mean_len,
            mean_minimal_length=mean_min,
            mean_stretch=mean_len / mean_min if mean_min > 0 else float("nan"),
            num_pairs=pairs,
        )

    def forwarding_entries(self) -> int:
        """Total forwarding-table entries across all layers (hardware cost, §VI-B)."""
        return self.tables.table_entries()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FatPathsRouting({self.topology.name}, n={self.config.num_layers}, "
                f"rho={self.config.rho}, algo={self.config.layer_algorithm})")
