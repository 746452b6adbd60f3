"""Layer construction for FatPaths layered routing (paper §V-B, Listings 1 and 2).

A *layer* is a subset of the physical links.  Minimal routing *inside* a sparsified
layer yields paths that are non-minimal with respect to the full network — this is how
FatPaths encodes non-minimal path diversity in commodity forwarding hardware.  The
first layer always contains every link (it hosts the true shortest paths).

Two constructors are provided:

* :func:`random_edge_sampling_layers` — Listing 1: each additional layer keeps a
  ``rho`` fraction of links sampled uniformly at random (optionally oriented by a
  random vertex permutation for acyclicity), re-sampling if the layer disconnects the
  network badly.
* :func:`interference_minimizing_layers` — Listing 2: a heuristic that, per layer,
  routes router pairs over paths slightly longer than minimal while minimising overlap
  with paths already placed (edge weights track usage; pairs with fewest paths placed
  get priority).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import FatPathsConfig
from repro.kernels.cache import kernels_for
from repro.kernels.csr import edges_connected, edges_connected_batch
from repro.topologies.base import Topology

Edge = Tuple[int, int]

#: Total resampling attempts per sparsified layer (unchanged from the seed loop).
_MAX_RESAMPLE_ATTEMPTS = 20


@dataclass(frozen=True)
class Layer:
    """One routing layer: an (undirected) subset of the topology's links."""

    index: int
    edges: FrozenSet[Edge]
    is_full: bool = False

    def __len__(self) -> int:
        return len(self.edges)

    def contains_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def subtopology(self, topology: Topology) -> Topology:
        """The layer as a Topology (same routers, restricted links)."""
        return topology.subgraph(sorted(self.edges))


@dataclass
class LayerSet:
    """All layers of one FatPaths deployment over one topology."""

    topology: Topology
    layers: List[Layer]
    config: FatPathsConfig
    meta: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    def edge_fractions(self) -> List[float]:
        """Fraction of physical links present in each layer."""
        total = self.topology.num_edges
        return [len(layer) / total for layer in self.layers]


def _normalize(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _is_connected(num_routers: int, edges: Sequence[Edge]) -> bool:
    """Vectorized CSR connectivity check on a candidate layer's edge subset."""
    return edges_connected(num_routers, edges)


# --------------------------------------------------------------------------- Listing 1
def random_edge_sampling_layers(topology: Topology, config: FatPathsConfig) -> LayerSet:
    """Listing 1: layer 1 keeps all links; each further layer samples ``rho |E|`` links u.a.r.

    The listing's ``pi(u) < pi(v)`` condition (a random vertex permutation per layer)
    acyclically *orients* each layer for deployments that forward over directed link
    sets; since FatPaths routes minimally over the undirected layer subgraph, the
    orientation does not change which links belong to the layer, so this implementation
    keeps the undirected subset only.

    Sparsified layers that disconnect the network are re-sampled a bounded number of
    times; if the graph stubbornly disconnects (very low ``rho`` on a sparse topology)
    the first attempt is kept — forwarding simply falls back to the full layer for
    unreachable pairs, as in a real deployment.

    Resampling is batched: candidates are drawn in geometrically growing blocks
    (1, 1, 2, 4, 8, ...) and each block is decided through one
    :func:`~repro.kernels.csr.edges_connected_batch` sweep instead of one
    Python-driven traversal per attempt.  The common cases — a connected draw within
    the first two attempts — consume exactly the permutations the seed's per-attempt
    loop did; layers whose first two attempts both disconnect (very low ``rho``)
    draw whole blocks up front, advancing the RNG by the block size rather than by
    the exact number of failed attempts — acceptable there, since which
    near-disconnected candidate is kept is already an arbitrary choice among
    statistically identical samples.
    """
    rng = np.random.default_rng(config.seed)
    all_edges = [(u, v) for u, v in topology.edges]
    layers = [Layer(index=0, edges=frozenset(all_edges), is_full=True)]
    target = max(1, int(np.floor(config.rho * len(all_edges))))

    def draw() -> List[Edge]:
        idx = rng.permutation(len(all_edges))[:target]
        return [all_edges[i] for i in idx]

    for layer_index in range(1, config.num_layers):
        chosen: Optional[List[Edge]] = None
        first = draw()
        if config.rho >= 1.0 or _is_connected(topology.num_routers, first):
            chosen = first
        attempts, block_size = 1, 1
        while chosen is None and attempts < _MAX_RESAMPLE_ATTEMPTS:
            block = [draw() for _ in range(min(block_size,
                                               _MAX_RESAMPLE_ATTEMPTS - attempts))]
            attempts += len(block)
            block_size *= 2
            connected = edges_connected_batch(topology.num_routers, block)
            for candidate, ok in zip(block, connected):
                if ok:
                    chosen = candidate
                    break
        layers.append(Layer(index=layer_index, edges=frozenset(chosen if chosen is not None
                                                               else first)))
    return LayerSet(topology=topology, layers=layers, config=config,
                    meta={"algorithm": "random"})


# --------------------------------------------------------------------------- Listing 2
def _bounded_min_weight_path(adj: List[List[int]], weights: Dict[Edge, float],
                             source: int, target: int, min_len: int, max_len: int,
                             banned_edges: Set[Edge]) -> Optional[List[int]]:
    """Minimum-weight simple path from source to target with hop count in [min_len, max_len].

    Implemented as a bounded Dijkstra over (vertex, hops) states; the hop bound keeps
    the state space small (max_len is diameter + 2 in practice).
    """
    # state: (accumulated weight, vertex, hops); parents keyed by (vertex, hops)
    start = (0.0, source, 0)
    best_cost: Dict[Tuple[int, int], float] = {(source, 0): 0.0}
    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}
    heap = [start]
    best_final: Optional[Tuple[float, int]] = None  # (cost, hops) at target
    while heap:
        cost, vertex, hops = heapq.heappop(heap)
        if best_cost.get((vertex, hops), float("inf")) < cost:
            continue
        if vertex == target and hops >= min_len:
            best_final = (cost, hops)
            break
        if hops == max_len:
            continue
        for nxt in adj[vertex]:
            edge = _normalize(vertex, nxt)
            if edge in banned_edges:
                continue
            ncost = cost + weights.get(edge, 0.0) + 1e-6  # small bias toward short paths
            key = (nxt, hops + 1)
            if ncost < best_cost.get(key, float("inf")):
                best_cost[key] = ncost
                parent[key] = (vertex, hops)
                heapq.heappush(heap, (ncost, nxt, hops + 1))
    if best_final is None:
        return None
    # reconstruct
    path = [target]
    key = (target, best_final[1])
    while key in parent:
        key = parent[key]
        path.append(key[0])
    path.reverse()
    if path[0] != source:
        return None
    # reject paths with repeated vertices (possible in the (vertex, hops) graph)
    if len(set(path)) != len(path):
        return None
    return path


def interference_minimizing_layers(topology: Topology, config: FatPathsConfig,
                                   pairs_per_layer: Optional[int] = None,
                                   candidate_pairs: Optional[Sequence[Tuple[int, int]]] = None
                                   ) -> LayerSet:
    """Listing 2: build layers from explicitly chosen low-overlap, slightly-non-minimal paths.

    For every additional layer, router pairs are processed in order of how few paths
    they have been given so far (a priority queue).  Each pair receives a minimum-weight
    path whose length lies within ``[l_min + min_extra_hops, l_min + max_extra_hops]``,
    where edge weights count prior usage across all layers — so later paths avoid the
    links earlier paths already claimed.  The chosen path's links are added to the layer,
    and "shortcut" links between non-consecutive path vertices are excluded from it
    (Listing 2's incidence-matrix update) so the path remains minimal inside the layer.

    ``candidate_pairs`` optionally restricts/prioritises the router pairs that receive
    explicit paths (the paper's constant ``M`` bounds the same work); by default pairs
    are sampled from the endpoint-hosting routers.
    """
    rng = np.random.default_rng(config.seed)
    adj = topology.adjacency()
    nr = topology.num_routers
    all_edges = [(u, v) for u, v in topology.edges]
    layers = [Layer(index=0, edges=frozenset(all_edges), is_full=True)]

    # usage weight per edge across all layers; path counts per router pair
    weights: Dict[Edge, float] = {e: 0.0 for e in all_edges}
    endpoint_routers = list(topology.endpoint_routers)
    pair_path_count: Dict[Tuple[int, int], int] = {}

    # minimal pair lengths served by the shared path cache (one CSR BFS per source
    # across all layer builds on this topology)
    kernels = kernels_for(topology)

    def lmin(s: int, t: int) -> int:
        return int(kernels.distances_from(s)[t])

    if candidate_pairs is not None:
        candidate_pool = [(int(s), int(t)) for s, t in candidate_pairs if s != t]
        if pairs_per_layer is None:
            pairs_per_layer = len(candidate_pool)
    else:
        candidate_pool = None
        if pairs_per_layer is None:
            pairs_per_layer = max(nr, len(endpoint_routers) * 2)

    for layer_index in range(1, config.num_layers):
        layer_edges: Set[Edge] = set()
        # priority queue of (paths already placed, random tiebreak, s, t)
        heap: List[Tuple[int, float, int, int]] = []
        if candidate_pool is not None:
            candidates = list(candidate_pool)
        else:
            # sample candidate pairs: all pairs for small networks, a random subset otherwise
            candidates = []
            max_candidates = 4 * pairs_per_layer
            if len(endpoint_routers) ** 2 <= max_candidates:
                candidates = [(s, t) for s in endpoint_routers for t in endpoint_routers if s != t]
            else:
                while len(candidates) < max_candidates:
                    s, t = rng.choice(endpoint_routers, size=2)
                    if s != t:
                        candidates.append((int(s), int(t)))
        for s, t in candidates:
            heapq.heappush(heap, (pair_path_count.get((s, t), 0), rng.random(), s, t))

        placed = 0
        # Listing 2's incidence-matrix exclusion: once a pair gets a path, "shortcut"
        # edges between non-consecutive path vertices are banned from this layer so the
        # chosen (almost-minimal) path stays the minimal route inside the layer.
        banned: Set[Edge] = set()
        while heap and placed < pairs_per_layer:
            _, _, s, t = heapq.heappop(heap)
            base = lmin(s, t)
            if base <= 0:
                continue
            path = _bounded_min_weight_path(
                adj, weights, s, t,
                min_len=base + config.min_extra_hops,
                max_len=base + config.max_extra_hops,
                banned_edges=banned,
            )
            if path is None:
                # fall back to any path of at least minimal length
                path = _bounded_min_weight_path(adj, weights, s, t, min_len=base,
                                                max_len=base + config.max_extra_hops,
                                                banned_edges=banned)
            if path is None:
                continue
            placed += 1
            pair_path_count[(s, t)] = pair_path_count.get((s, t), 0) + 1
            length = len(path) - 1
            for i, (u, v) in enumerate(zip(path, path[1:])):
                edge = _normalize(u, v)
                layer_edges.add(edge)
                # Listing 2's weight update: centre edges of long paths get penalised most
                weights[edge] += i * (length - 1 - i) + 1.0
            adjacency_sets = None
            for i in range(len(path)):
                for j in range(i + 2, len(path)):
                    if adjacency_sets is None:
                        adjacency_sets = [set(neigh) for neigh in adj]
                    if path[j] in adjacency_sets[path[i]]:
                        shortcut = _normalize(path[i], path[j])
                        if shortcut not in layer_edges:
                            banned.add(shortcut)
        layers.append(Layer(index=layer_index,
                            edges=frozenset(layer_edges) if layer_edges else frozenset(all_edges)))
    return LayerSet(topology=topology, layers=layers, config=config,
                    meta={"algorithm": "interference", "pairs_per_layer": pairs_per_layer})


def build_layers(topology: Topology, config: Optional[FatPathsConfig] = None) -> LayerSet:
    """Build a layer set according to ``config.layer_algorithm`` (default: random sampling)."""
    config = config or FatPathsConfig()
    if config.layer_algorithm == "random":
        return random_edge_sampling_layers(topology, config)
    return interference_minimizing_layers(topology, config)
