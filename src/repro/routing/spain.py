"""SPAIN — Smart Path Assignment In Networks (Mudigonda et al., NSDI'10).

SPAIN is the paper's closest layered-routing baseline (§VI, Appendix C.B): it
pre-computes, per destination, a set of (preferably link-disjoint) short paths, colours
the paths of each destination into VLANs such that each VLAN's per-destination subgraph
is loop-free, and finally merges VLANs of different destinations greedily as long as
the union stays acyclic.  Every merged VLAN is an acyclic link subset — i.e. a *layer*
in FatPaths terms, which is exactly how the comparison in the paper integrates it.

The key structural difference from FatPaths (and the source of SPAIN's disadvantage on
low-diameter topologies) is that each layer is a forest, so a layer can hold at most
``Nr - 1`` links and O(k') to O(Nr) layers are needed to cover the path diversity.

The construction runs one destination at a time over all of its sources at once:

* **Paths.**  Pass ``i`` of a (source, destination) pair is a Dijkstra path under
  link weights ``1 + |E| * uses``, where ``uses`` counts the pair's earlier paths over
  the link.  Pass 1 reads the cached hop-distance matrix; later passes run one
  :func:`scipy.sparse.csgraph.dijkstra` over a block-diagonal graph with one block
  per still-active source.  Paths are read back from the distance labels with the
  scalar heap's tie rule: the parent of ``v`` is its tight predecessor ``u``
  (``dist(u) + w(u, v) == dist(v)``) with the smallest ``(dist(u), u)``.  A source
  stops at its first repeated path.
* **Conflicts.**  Two paths to one destination conflict iff they share a router at
  which their next hops differ, i.e. iff ``(S Sᵀ) > (H Hᵀ)`` for the path × router
  incidence ``S`` and the path × (router, next hop) incidence ``H`` (destination
  excluded).  The conflict graph is coloured greedily in path order.
* **Merging.**  Each merged layer keeps one union-find; a VLAN is tested by adding
  only its links the layer lacks, and those unions are undone when it is rejected.

:func:`repro.kernels.reference.spain_layers_python` is the per-pair scalar
specification; ``tests/routing/test_spain_equivalence.py`` pins layer edge sets
and per-pair paths to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.config import FatPathsConfig
from repro.core.layers import Layer, LayerSet
from repro.kernels.cache import kernels_for
from repro.routing.base import LayerSetRouting
from repro.topologies.base import Topology

Edge = Tuple[int, int]


def _normalize(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class _LinkIndex:
    """Link ids and padded neighbour tables of one topology.

    Link ``e`` is ``topology.edges[e]``.  ``nbr[v]`` lists ``v``'s neighbours in
    ascending order, padded with the phantom router ``n`` (whose distance label is
    always ``inf``); ``nbr_link[v]`` holds the matching link ids, padded with the
    phantom link ``|E|``.
    """

    def __init__(self, topology: Topology) -> None:
        csr = kernels_for(topology).csr
        n, num_links = topology.num_routers, len(topology.edges)
        self.n, self.num_links = n, num_links
        self.indptr, self.indices = csr.indptr, csr.indices
        ends = np.asarray(topology.edges, dtype=np.int64).reshape(-1, 2)
        heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        keys = np.minimum(heads, csr.indices) * n + np.maximum(heads, csr.indices)
        #: link id of every CSR slot (topology.edges is sorted, so keys are too)
        self.slot_link = np.searchsorted(ends[:, 0] * n + ends[:, 1], keys)
        degree = np.diff(csr.indptr)
        width = int(degree.max())
        column = np.arange(csr.indices.size) - np.repeat(csr.indptr[:-1], degree)
        self.nbr = np.full((n, width), n, dtype=np.int64)
        self.nbr[heads, column] = csr.indices
        self.nbr_link = np.full((n, width), num_links, dtype=np.int64)
        self.nbr_link[heads, column] = self.slot_link


def _read_paths(index: _LinkIndex, dist: np.ndarray, weights: Optional[np.ndarray],
                sources: np.ndarray, dest: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read every source's Dijkstra path to ``dest`` back from its distance labels.

    ``dist`` is ``(B, n + 1)`` (labels from each source, ``inf`` unreachable and in
    the phantom column); ``weights`` is ``(B, |E| + 1)`` per-link weights, or
    ``None`` for unit weights.  No source may be ``dest``.  Returns ``(verts,
    links)``: ``verts[b]`` walks from ``dest`` back to ``sources[b]`` (``-1`` after
    it), ``links[b, j]`` is the link between ``verts[b, j]`` and ``verts[b, j + 1]``.
    """
    count = sources.size
    cur = np.full(count, dest, dtype=np.int64)
    verts = [cur.copy()]
    links: List[np.ndarray] = []
    live = np.flatnonzero(cur != sources)
    while live.size:
        v = cur[live]
        nbr = index.nbr[v]
        labels = dist[live[:, None], nbr]
        step = 1.0 if weights is None else weights[live[:, None], index.nbr_link[v]]
        tight = labels + step == dist[live, v][:, None]
        # first minimum of the tight labels: smallest (dist(u), u), rows are sorted
        pick = np.where(tight, labels, np.inf).argmin(axis=1)
        rows = np.arange(live.size)
        nxt = nbr[rows, pick]
        vert_col = np.full(count, -1, dtype=np.int64)
        link_col = np.full(count, -1, dtype=np.int64)
        vert_col[live] = nxt
        link_col[live] = index.nbr_link[v, pick]
        verts.append(vert_col)
        links.append(link_col)
        cur[live] = nxt
        live = live[nxt != sources[live]]
    return np.stack(verts, axis=1), np.stack(links, axis=1)


def _weighted_labels(index: _LinkIndex, uses: np.ndarray,
                     sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dijkstra labels from every source under its own weights ``1 + |E| * uses``.

    One :func:`scipy.sparse.csgraph.dijkstra` call over a block-diagonal graph
    with one block per source.  Returns ``(dist, weights)`` shaped for
    :func:`_read_paths`.
    """
    count, n = sources.size, index.n
    slots = index.indices.size
    weights = 1.0 + index.num_links * uses.astype(np.float64)
    offsets = np.arange(count, dtype=np.int64)
    indptr = np.append((index.indptr[:-1] + offsets[:, None] * slots).ravel(),
                       count * slots)
    indices = (index.indices + offsets[:, None] * n).ravel()
    graph = csr_matrix((weights[:, index.slot_link].ravel(), indices, indptr),
                       shape=(count * n, count * n))
    labels = dijkstra(graph, directed=True, indices=sources + offsets * n, min_only=True)
    dist = np.full((count, n + 1), np.inf)
    dist[:, :n] = labels.reshape(count, n)
    return dist, weights


def _pad(arr: np.ndarray, width: int) -> np.ndarray:
    """``arr`` widened to ``width`` columns with ``-1``."""
    out = np.full((arr.shape[0], width), -1, dtype=np.int64)
    out[:, :arr.shape[1]] = arr
    return out


def _destination_paths(index: _LinkIndex, hops: np.ndarray, sources: np.ndarray,
                       dest: int, paths_per_pair: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every source's paths to ``dest`` as padded arrays, source-major and pass-minor.

    ``hops`` is the hop-distance matrix.  Returns ``(owner, verts, links,
    lengths)``: path ``i`` is one of ``sources[owner[i]]``'s, has ``lengths[i]``
    hops, and ``verts[i]``/``links[i]`` are laid out as :func:`_read_paths` returns
    them.
    """
    count = sources.size
    dist = np.full((count, index.n + 1), np.inf)
    dist[:, :index.n] = np.where(hops[sources] >= 0, hops[sources], np.inf)
    weights = None
    uses = np.zeros((count, index.num_links + 1), dtype=np.int64)
    active = np.arange(count)
    passes: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for attempt in range(paths_per_pair):
        if active.size == 0:
            break
        if attempt:
            dist, weights = _weighted_labels(index, uses[active], sources[active])
        verts, links = _read_paths(index, dist, weights, sources[active], dest)
        # a source stops at its first path that repeats one of its earlier paths
        repeated = np.zeros(active.size, dtype=bool)
        for owner, earlier, _, _ in passes:
            earlier = earlier[np.searchsorted(owner, active)]
            width = max(earlier.shape[1], verts.shape[1])
            repeated |= (_pad(earlier, width) == _pad(verts, width)).all(axis=1)
        active, verts, links = active[~repeated], verts[~repeated], links[~repeated]
        lengths = (verts >= 0).sum(axis=1) - 1
        hop = np.arange(links.shape[1]) < lengths[:, None]
        uses[active[np.nonzero(hop)[0]], links[hop]] += 1
        passes.append((active, verts, links, lengths))
    width = max(verts.shape[1] for _, verts, _, _ in passes)
    owner = np.concatenate([owner for owner, _, _, _ in passes])
    order = np.argsort(owner, kind="stable")
    return (owner[order],
            np.concatenate([_pad(verts, width) for _, verts, _, _ in passes])[order],
            np.concatenate([_pad(links, width - 1) for _, _, links, _ in passes])[order],
            np.concatenate([lengths for _, _, _, lengths in passes])[order])


def _colour_paths(index: _LinkIndex, verts: np.ndarray, links: np.ndarray,
                  lengths: np.ndarray) -> List[np.ndarray]:
    """Greedy VLAN colouring of one destination's paths; one link-id array per colour.

    Paths ``i`` and ``j`` conflict iff ``(S Sᵀ)[i, j] > (H Hᵀ)[i, j]``: they share
    more routers than (router, next hop) pairs.  Colours are assigned in path
    order, each the smallest colour no earlier conflicting path holds.
    """
    num_paths = lengths.size
    hop = np.arange(links.shape[1]) < lengths[:, None]
    rows = np.nonzero(hop)[0]
    routers, nexts, hop_links = verts[:, 1:][hop], verts[:, :-1][hop], links[hop]
    ones = np.ones(rows.size, dtype=np.int64)
    shared_routers = csr_matrix((ones, (rows, routers)), shape=(num_paths, index.n))
    shared_hops = csr_matrix((ones, (rows, 2 * hop_links + (routers > nexts))),
                             shape=(num_paths, 2 * index.num_links))
    conflicts = (shared_routers @ shared_routers.T - shared_hops @ shared_hops.T).tocsr()
    conflicts.data = (conflicts.data > 0).astype(np.int8)
    conflicts.eliminate_zeros()
    indptr, indices = conflicts.indptr, conflicts.indices
    width = int(np.diff(indptr).max(initial=0)) + 2
    taken = np.zeros((num_paths, width), dtype=bool)
    colours = np.empty(num_paths, dtype=np.int64)
    for vertex in range(num_paths):
        colour = int(taken[vertex].argmin())
        colours[vertex] = colour
        taken[indices[indptr[vertex]:indptr[vertex + 1]], colour] = True
    stride = index.num_links + 1
    keys = np.unique(colours[rows] * stride + hop_links)
    starts = np.searchsorted(keys, np.arange(colours.max() + 2) * stride)
    return [keys[starts[c]:starts[c + 1]] % stride for c in range(colours.max() + 1)]


class _MergedLayer:
    """A merged VLAN: its link ids plus a union-find over its routers.

    Union by size without path compression, so a rejected VLAN's unions can be
    undone by resetting the roots they attached.
    """

    __slots__ = ("links", "parent", "size")

    def __init__(self, num_routers: int) -> None:
        self.links: Set[int] = set()
        self.parent = list(range(num_routers))
        self.size = [1] * num_routers

    def try_merge(self, vlan: Set[int], ends: Sequence[Edge]) -> bool:
        """Add ``vlan`` if the union stays acyclic; otherwise leave the layer as it was.

        Only the VLAN's links the layer lacks are unioned; the layer is a forest, so
        the union is acyclic iff none of them joins two routers already connected.
        """
        links, parent, size = self.links, self.parent, self.size
        attached: List[Tuple[int, int]] = []
        for link in vlan:
            if link in links:
                continue
            u, v = ends[link]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                for child, root in reversed(attached):
                    parent[child] = child
                    size[root] -= size[child]
                return False
            if size[u] > size[v]:
                u, v = v, u
            parent[u] = v
            size[v] += size[u]
            attached.append((u, v))
        links |= vlan
        return True


def _check_arguments(topology: Topology, paths_per_pair: int,
                     destinations: Sequence[int], max_layers: Optional[int]) -> None:
    """One-line ``ValueError`` for arguments the construction cannot honour."""
    if paths_per_pair < 1:
        raise ValueError(f"paths_per_pair must be >= 1, got {paths_per_pair}")
    if max_layers is not None and max_layers < 1:
        raise ValueError(f"max_layers must be >= 1 or None, got {max_layers}")
    for dest in destinations:
        if not 0 <= dest < topology.num_routers:
            raise ValueError(f"destinations: router {dest} out of range "
                             f"[0, {topology.num_routers})")
    if len(set(destinations)) != len(destinations):
        raise ValueError("destinations must not repeat a router")


def _bfs_spanning_tree(topology: Topology, root: int, rng: np.random.Generator) -> Set[Edge]:
    """BFS spanning tree rooted at ``root`` with randomised neighbour order."""
    adj = topology.adjacency()
    visited = {root}
    edges: Set[Edge] = set()
    frontier = [root]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            neighbours = list(adj[u])
            rng.shuffle(neighbours)
            for v in neighbours:
                if v not in visited:
                    visited.add(v)
                    edges.add(_normalize(u, v))
                    nxt.append(v)
        frontier = nxt
    return edges


def build_spain_layers(topology: Topology, paths_per_pair: int = 3,
                       destinations: Optional[Sequence[int]] = None,
                       seed: int = 0, max_layers: Optional[int] = None,
                       return_paths: bool = False):
    """Run the SPAIN path pre-computation + VLAN merging and return the layers.

    Parameters
    ----------
    topology:
        Router graph.
    paths_per_pair:
        The ``k`` of SPAIN's per-destination k-path computation (``>= 1``).
    destinations:
        Distinct destination routers to compute VLANs for (default: all endpoint
        routers).  Restricting this bounds the precomputation on larger graphs.
    seed:
        Randomisation seed (tie breaking, merge order).
    max_layers:
        Optional cap (``>= 1``) on the number of merged layers (VLAN hardware
        limit); excess layers are dropped, keeping the densest ones plus the
        fallback spanning tree.
    return_paths:
        If True, also return the per-pair precomputed paths
        (``{(source, destination): [paths]}``).  The cap does not prune them: a
        path may lie in no kept layer.
    """
    if destinations is None:
        destinations = list(topology.endpoint_routers)
    destinations = [int(d) for d in destinations]
    _check_arguments(topology, paths_per_pair, destinations, max_layers)
    rng = np.random.default_rng(seed)
    index = _LinkIndex(topology)
    hops = kernels_for(topology).distance_matrix()
    endpoint_routers = np.asarray(topology.endpoint_routers, dtype=np.int64)

    # Phase 1+2: per-destination path computation and VLAN colouring.
    per_destination_vlans: List[Set[int]] = []
    pair_paths: Dict[Tuple[int, int], List[List[int]]] = {}
    for dest in destinations:
        reachable = (endpoint_routers != dest) & (hops[dest, endpoint_routers] >= 0)
        sources = endpoint_routers[reachable]
        if sources.size == 0:
            continue
        owner, verts, links, lengths = _destination_paths(index, hops, sources, dest,
                                                          paths_per_pair)
        for src, walk, last in zip(sources[owner].tolist(), verts.tolist(), lengths.tolist()):
            pair_paths.setdefault((src, dest), []).append(walk[last::-1])
        per_destination_vlans.extend(set(vlan.tolist())
                                     for vlan in _colour_paths(index, verts, links, lengths))

    # Phase 3: greedily merge VLANs across destinations while the union stays acyclic.
    order = list(range(len(per_destination_vlans)))
    rng.shuffle(order)
    ends = topology.edges
    merged: List[_MergedLayer] = []
    for idx in order:
        vlan = per_destination_vlans[idx]
        for target in merged:
            if target.try_merge(vlan, ends):
                break
        else:
            # a per-destination VLAN is a tree (one next hop per router towards the
            # destination), so it always fits an empty layer
            layer = _MergedLayer(topology.num_routers)
            layer.try_merge(vlan, ends)
            merged.append(layer)

    # VLAN 1: a fallback spanning tree covering every pair (SPAIN's base VLAN).
    fallback = _bfs_spanning_tree(topology, int(rng.integers(topology.num_routers)), rng)
    merged.sort(key=lambda layer: len(layer.links), reverse=True)
    if max_layers is not None:
        merged = merged[: max_layers - 1]
    layer_edge_sets = [fallback] + [{ends[link] for link in layer.links} for layer in merged]

    layers = [Layer(index=i, edges=frozenset(edges), is_full=False)
              for i, edges in enumerate(layer_edge_sets)]
    config = FatPathsConfig(num_layers=max(1, len(layers)), rho=1.0, seed=seed)
    layer_set = LayerSet(topology=topology, layers=layers, config=config,
                         meta={"algorithm": "spain", "paths_per_pair": paths_per_pair})
    if return_paths:
        return layer_set, pair_paths
    return layer_set


class SpainRouting(LayerSetRouting):
    """SPAIN as a multi-path provider.

    A pair's candidate paths are all the paths SPAIN precomputes for it (at most
    ``paths_per_pair`` per pair).  They are not filtered by ``max_layers``: with a
    cap, some of them lie in no kept VLAN, so a consumer such as the Figure 9 LP
    credits SPAIN with paths its kept VLANs cannot carry.  Pairs whose destination
    was not part of the VLAN computation fall back to the spanning-tree VLAN
    (layer 0) route — matching SPAIN's behaviour of defaulting unknown destinations
    to VLAN 1.
    """

    def __init__(self, topology: Topology, paths_per_pair: int = 3,
                 destinations: Optional[Sequence[int]] = None, seed: int = 0,
                 max_layers: Optional[int] = None) -> None:
        layer_set, pair_paths = build_spain_layers(
            topology, paths_per_pair=paths_per_pair, destinations=destinations,
            seed=seed, max_layers=max_layers, return_paths=True)
        super().__init__(topology, layer_set, name="spain", seed=seed)
        self._pair_paths = pair_paths

    def router_paths(self, source_router: int, target_router: int) -> List[List[int]]:
        if source_router == target_router:
            return [[source_router]]
        precomputed = self._pair_paths.get((source_router, target_router))
        if precomputed:
            return precomputed
        # unknown destination: use the fallback spanning-tree VLAN only
        path = self.tables.path(0, source_router, target_router)
        return [path] if path else []
