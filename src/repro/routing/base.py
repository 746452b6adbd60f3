"""Common interface for multi-path routing schemes.

A routing scheme, for the purposes of the paper's comparisons, is a *path provider*:
given a pair of routers it returns the candidate router paths the scheme would use.
Both the simulators (which split flows/flowlets over the candidates) and the throughput
LPs (which solve for the optimal split) consume this interface.
"""

from __future__ import annotations

import abc
from typing import List, Optional

import numpy as np

from repro.core.forwarding import ForwardingTables, build_forwarding_tables
from repro.core.layers import LayerSet
from repro.topologies.base import Topology


class MultiPathRouting(abc.ABC):
    """Protocol: candidate router paths per router pair."""

    #: Human-readable scheme name used in experiment tables.
    name: str = "routing"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    @abc.abstractmethod
    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        """Candidate paths (lists of router ids, source first, target last)."""

    def endpoint_paths(self, source_endpoint: int, target_endpoint: int) -> List[List[int]]:
        rs = self.topology.router_of_endpoint(source_endpoint)
        rt = self.topology.router_of_endpoint(target_endpoint)
        if rs == rt:
            return [[rs]]
        return self.router_paths(rs, rt)

    def num_paths(self, source_router: int, target_router: int) -> int:
        return len(self.router_paths(source_router, target_router))

    def average_path_length(self, num_samples: int = 200,
                            rng: Optional[np.random.Generator] = None) -> float:
        """Mean candidate-path length over sampled endpoint-router pairs."""
        rng = rng or np.random.default_rng(0)
        routers = list(self.topology.endpoint_routers)
        total, count = 0.0, 0
        for _ in range(num_samples):
            s, t = rng.choice(routers, size=2)
            if s == t:
                continue
            for path in self.router_paths(int(s), int(t)):
                total += len(path) - 1
                count += 1
        return total / count if count else 0.0


class SinglePathRouting(MultiPathRouting):
    """Helper base class for schemes that return exactly one path per pair."""

    @abc.abstractmethod
    def router_path(self, source_router: int, target_router: int) -> Optional[List[int]]:
        """The single path, or None if the scheme cannot route the pair."""

    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        path = self.router_path(source_router, target_router)
        return [path] if path else []


class LayerSetRouting(MultiPathRouting):
    """Minimal routing inside an arbitrary set of layers (subgraphs).

    This is the generic machinery shared by FatPaths (random / interference layers),
    SPAIN (merged VLAN subgraphs) and PAST-style schemes: build per-layer forwarding
    tables and report the per-layer path for every pair.  Pairs unreachable inside a
    layer fall back to the first layer.
    """

    def __init__(self, topology: Topology, layer_set: LayerSet, name: str = "layered",
                 seed: Optional[int] = None) -> None:
        super().__init__(topology)
        self.name = name
        self.layer_set = layer_set
        self.tables: ForwardingTables = build_forwarding_tables(layer_set, seed=seed)

    @property
    def num_layers(self) -> int:
        return len(self.layer_set)

    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        if source_router == target_router:
            return [[source_router]]
        return self.tables.paths(source_router, target_router)

    def forwarding_entries(self) -> int:
        return self.tables.table_entries()
