"""Per-layer forwarding functions and tables (paper §V-A, §V-C, Appendix C.A).

FatPaths uses destination-based forwarding: within layer ``i`` a routing function
``sigma_i(s, t)`` returns the next-hop router on a *minimal path inside that layer*
from ``s`` towards ``t``.  This module computes those functions as dense next-hop
tables (one ``Nr x Nr`` int array per layer) plus the per-layer distance matrices, and
provides path extraction by iterating the forwarding function.

Both distances and next-hop tables come from the vectorized CSR kernels through the
process-wide path cache, keyed by (topology fingerprint, layer index, edge digest):
the tables are built by :mod:`repro.kernels.nexthop` — a fully vectorized permuted
-neighbour scan over the cached distance matrix, no per-source Python loop — and
cached per ``(layer, seed)``, so repeated forwarding builds over identical layers
(common across figures of one experiment sweep) reuse one APSP *and* one table
construction.  Next hops are chosen uniformly at random among the neighbours that
make progress (Listing 3: "choose a random first step port, if there are multiple
options"); each layer draws its randomness from the deterministic per-layer seed
``(base_seed, layer_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.layers import Layer, LayerSet
from repro.kernels.cache import layer_kernels
from repro.topologies.base import Topology

UNREACHABLE = -1


def _layer_distance_matrix(topology: Topology, layer: Layer) -> np.ndarray:
    """All-pairs hop distances within one layer (inf for unreachable), shared-cached."""
    return layer_kernels(topology, layer).distance_matrix_float()


def _next_hop_table(topology: Topology, layer: Layer, seed) -> np.ndarray:
    """Dense next-hop table for one layer: ``table[s, t]`` = next router from s towards t.

    Served read-only from the layer's cached kernels (built vectorized by
    :func:`repro.kernels.nexthop.next_hop_table`); equal ``(layer, seed)`` pairs
    share one table.
    """
    return layer_kernels(topology, layer).next_hop_table(seed)


@dataclass
class ForwardingTables:
    """Forwarding state for all layers of a FatPaths deployment.

    Attributes
    ----------
    topology, layer_set:
        The network and its layers.
    next_hops:
        ``next_hops[i][s, t]`` = next router from ``s`` towards ``t`` inside layer ``i``
        (or ``UNREACHABLE``).
    distances:
        ``distances[i][s, t]`` = hop distance inside layer ``i`` (``inf`` if unreachable).
    """

    topology: Topology
    layer_set: LayerSet
    next_hops: List[np.ndarray]
    distances: List[np.ndarray]
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def num_layers(self) -> int:
        return len(self.next_hops)

    def next_hop(self, layer: int, source: int, target: int) -> int:
        """``sigma_layer(source, target)`` — the next router, or ``UNREACHABLE``."""
        return int(self.next_hops[layer][source, target])

    def reachable(self, layer: int, source: int, target: int) -> bool:
        return np.isfinite(self.distances[layer][source, target])

    def path(self, layer: int, source: int, target: int,
             fallback_to_full: bool = True) -> Optional[List[int]]:
        """The router path obtained by iterating ``sigma_layer`` from source to target.

        If the pair is unreachable within the layer and ``fallback_to_full`` is set, the
        full (first) layer is used instead — mirroring a deployment where a missing
        route in a sparsified layer falls back to default forwarding.
        """
        if source == target:
            return [source]
        use_layer = layer
        if not self.reachable(layer, source, target):
            if not fallback_to_full:
                return None
            use_layer = 0
            if not self.reachable(0, source, target):
                return None
        table = self.next_hops[use_layer]
        path = [source]
        current = source
        limit = self.topology.num_routers + 1
        for _ in range(limit):
            current = int(table[current, target])
            if current == UNREACHABLE:
                return None
            path.append(current)
            if current == target:
                return path
        raise RuntimeError("forwarding loop detected")  # pragma: no cover - defensive

    def paths(self, source: int, target: int) -> List[List[int]]:
        """One path per layer from source to target, duplicates dropped."""
        seen = set()
        out: List[List[int]] = []
        for layer in range(self.num_layers):
            p = self.path(layer, source, target)
            if p is None:
                continue
            key = tuple(p)
            if key in seen:
                continue
            seen.add(key)
            out.append(p)
        return out

    def table_entries(self) -> int:
        """Total number of forwarding entries (the hardware-resource metric of §VI-B)."""
        return sum(int((t != UNREACHABLE).sum()) - self.topology.num_routers
                   for t in self.next_hops)


def build_forwarding_tables(layer_set: LayerSet, seed: Optional[int] = None) -> ForwardingTables:
    """Populate per-layer forwarding tables for ``layer_set`` (Listing 3).

    Each layer's table is built by the vectorized kernel from the layer's cached
    distance matrix under the deterministic seed ``(base_seed, layer_index)`` (where
    ``base_seed`` is ``seed`` or the layer-set config seed), and is itself cached —
    rebuilding over identical layers with the same seed returns the cached tables.
    The returned next-hop arrays are read-only views of the cache.
    """
    topology = layer_set.topology
    base_seed = layer_set.config.seed if seed is None else seed
    next_hops: List[np.ndarray] = []
    distances: List[np.ndarray] = []
    for layer in layer_set:
        distances.append(_layer_distance_matrix(topology, layer))
        next_hops.append(_next_hop_table(topology, layer, (base_seed, layer.index)))
    return ForwardingTables(topology=topology, layer_set=layer_set,
                            next_hops=next_hops, distances=distances,
                            meta={"algorithm": layer_set.meta.get("algorithm", "random")})
