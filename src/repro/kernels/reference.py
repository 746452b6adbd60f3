"""Legacy scalar reference implementations, preserved for equivalence testing.

These are the pure-Python per-source/per-pair kernels the repository shipped with
before the vectorized CSR engine in :mod:`repro.kernels` replaced them on the hot
paths.  They are kept (modulo operating on raw adjacency data instead of a
``Topology``) so that

* the equivalence test suite can assert, on every topology generator, that the
  vectorized kernels reproduce the scalar results bit-for-bit, and
* the benchmark suite can report the legacy-vs-kernel speedup on identical inputs.

Three entries are *specifications* rather than seed code:
:func:`greedy_disjoint_paths_python` and :func:`next_hop_table_python` define the
deterministic tie-breaking semantics (documented per function) that the batched
kernels in :mod:`repro.kernels.disjoint` and :mod:`repro.kernels.nexthop` must
reproduce exactly, and :func:`spain_layers_python` is the per-pair SPAIN
construction that the per-destination batched
:func:`repro.routing.spain.build_spain_layers` must reproduce layer for layer and
path for path.

Do not "optimise" this module — its value is being the trusted slow baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def adjacency_lists(num_nodes: int, edges: Sequence[Edge]) -> List[List[int]]:
    """Sorted adjacency lists, exactly as ``Topology.adjacency`` built them."""
    adj: List[List[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    return adj


def bfs_distances_python(num_nodes: int, adj: List[List[int]], source: int) -> np.ndarray:
    """The seed repository's per-source Python BFS (hop distances, -1 unreachable)."""
    dist = np.full(num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt: List[int] = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def distance_matrix_python(num_nodes: int, edges: Sequence[Edge]) -> np.ndarray:
    """All-pairs distances via one Python BFS per source (the legacy APSP path)."""
    adj = adjacency_lists(num_nodes, edges)
    return np.vstack([bfs_distances_python(num_nodes, adj, s) for s in range(num_nodes)])


def is_connected_python(num_nodes: int, edges: Sequence[Edge]) -> bool:
    """The seed repository's stack-based connectivity check."""
    if num_nodes <= 1:
        return True
    adj = adjacency_lists(num_nodes, edges)
    seen = [False] * num_nodes
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == num_nodes


def count_shortest_paths_python(num_nodes: int, edges: Sequence[Edge]) -> np.ndarray:
    """Legacy dense matrix-power shortest-path counting (first-reach bookkeeping)."""
    adj = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = 1
        adj[v, u] = 1
    reached = np.eye(num_nodes, dtype=bool)
    counts = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    power = np.eye(num_nodes, dtype=np.int64)
    for _ in range(num_nodes):
        power = power @ adj
        newly = (~reached) & (power > 0)
        counts[newly] = power[newly]
        reached |= newly
        if reached.all():
            break
    return counts


def _shortest_qualifying_path_python(adj: List[Set[int]], sources: Set[int],
                                     targets: Set[int],
                                     max_len: int) -> Optional[List[int]]:
    """Deterministic level-synchronous bounded BFS (the greedy CDP tie-break spec).

    Discovery is level-synchronous; a newly discovered vertex's parent is its
    *minimum-index* neighbour on the previous frontier; the search stops at the
    first level that reaches any target and returns the path to the
    *minimum-index* target discovered at that level (``None`` if no target is
    reachable within ``max_len`` hops).
    """
    parent: Dict[int, int] = {}
    seen: Set[int] = set(sources)
    frontier = sorted(sources)
    for _ in range(max_len):
        newly: Dict[int, int] = {}
        for u in frontier:  # ascending u: first discovery assigns the min parent
            for v in sorted(adj[u]):
                if v not in seen and v not in newly:
                    newly[v] = u
        if not newly:
            return None
        parent.update(newly)
        hits = sorted(v for v in newly if v in targets)
        if hits:
            path = [hits[0]]
            while path[-1] not in sources:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        seen.update(newly)
        frontier = sorted(newly)
    return None


def greedy_disjoint_paths_python(num_nodes: int, edges: Sequence[Edge],
                                 sources: Sequence[int], targets: Sequence[int],
                                 max_len: int, return_paths: bool = False):
    """Scalar greedy edge-disjoint path counting — the trusted baseline for
    :func:`repro.kernels.disjoint.batch_disjoint_paths` (one item per call).

    Repeatedly finds a shortest qualifying path with
    :func:`_shortest_qualifying_path_python` and saturates it by removing the
    path's edges.  Items whose source and target sets intersect count zero.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    src = set(int(s) for s in sources)
    dst = set(int(t) for t in targets)
    if not src or not dst:
        raise ValueError("source and target sets must be non-empty")
    adj = [set() for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0
    paths: List[List[int]] = []
    if not (src & dst):
        while True:
            path = _shortest_qualifying_path_python(adj, src, dst, max_len)
            if path is None:
                break
            count += 1
            paths.append(path)
            for u, v in zip(path, path[1:]):
                adj[u].discard(v)
                adj[v].discard(u)
    if return_paths:
        return count, paths
    return count


def next_hop_table_python(num_nodes: int, edges: Sequence[Edge],
                          distances: np.ndarray, seed) -> np.ndarray:
    """Scalar random-minimal next-hop table — the trusted baseline for
    :func:`repro.kernels.nexthop.next_hop_table`.

    One random key per directed slot of the sorted adjacency (a single
    ``rng.random`` call, CSR slot order); each source visits its neighbours in
    key-ascending order and every neighbour claims the still-unassigned
    destinations it makes minimal progress towards (``dist(v, t) == dist(s, t) -
    1`` with ``dist(s, t)`` finite and positive).  Unreachable pairs stay ``-1``;
    the diagonal maps to itself.
    """
    adj = adjacency_lists(num_nodes, edges)
    table = np.full((num_nodes, num_nodes), -1, dtype=np.int32)
    dist = np.asarray(distances, dtype=np.float64)
    keys = np.random.default_rng(seed).random(sum(len(a) for a in adj))
    starts = np.cumsum([0] + [len(a) for a in adj])
    for s in range(num_nodes):
        slots = list(range(starts[s], starts[s + 1]))
        slots.sort(key=lambda slot: keys[slot])
        for slot in slots:
            v = adj[s][slot - starts[s]]
            for t in range(num_nodes):
                want = dist[s, t] - 1.0
                if (want >= 0 and np.isfinite(want) and table[s, t] < 0
                        and dist[v, t] == want):
                    table[s, t] = v
        table[s, s] = s
    return table


def next_hop_sets_python(num_nodes: int, edges: Sequence[Edge],
                         max_len: int) -> List[List[Set[int]]]:
    """Legacy set-semiring next-hop propagation (Appendix B.A.1), kept verbatim."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    adj_lists = adjacency_lists(num_nodes, edges)
    current: List[List[Set[int]]] = [[set() for _ in range(num_nodes)] for _ in range(num_nodes)]
    for s in range(num_nodes):
        for v in adj_lists[s]:
            current[s][v].add(v)
    accumulated: List[List[Set[int]]] = [[set(current[s][t]) for t in range(num_nodes)]
                                         for s in range(num_nodes)]
    for _ in range(max_len - 1):
        nxt: List[List[Set[int]]] = [[set() for _ in range(num_nodes)] for _ in range(num_nodes)]
        for s in range(num_nodes):
            row = current[s]
            for mid in range(num_nodes):
                hops = row[mid]
                if not hops:
                    continue
                for t in adj_lists[mid]:
                    nxt[s][t] |= hops
        current = nxt
        for s in range(num_nodes):
            for t in range(num_nodes):
                accumulated[s][t] |= current[s][t]
    for s in range(num_nodes):
        accumulated[s][s] = set()
    return accumulated


# ------------------------------------------------------------------------ SPAIN
def _normalize(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def weighted_shortest_path_python(adj: List[List[int]], weights: Dict[Edge, float],
                                  source: int, target: int) -> Optional[List[int]]:
    """Dijkstra over hop-count + usage penalties (prefers link-disjoint repeats).

    Heap entries are ``(distance, vertex)`` tuples and a label only improves on a
    strictly shorter distance, so the parent of ``v`` is its tight predecessor
    ``u`` (``dist(u) + w(u, v) == dist(v)``) with the smallest ``(dist(u), u)``.
    """
    import heapq

    dist = {source: 0.0}
    parent: Dict[int, int] = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        if u == target:
            break
        for v in adj[u]:
            w = 1.0 + weights.get(_normalize(u, v), 0.0)
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if target not in dist:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def vlan_compatible_python(path_a: Sequence[int], path_b: Sequence[int]) -> bool:
    """Listing 4's compatibility check: shared routers must agree on the next hop.

    Both paths lead to the same destination; if they disagree on the outgoing link at a
    shared router, putting them in one VLAN would create ambiguity/loops.
    """
    next_hop_a = {path_a[i]: path_a[i + 1] for i in range(len(path_a) - 1)}
    for i in range(len(path_b) - 1):
        router = path_b[i]
        if router in next_hop_a and next_hop_a[router] != path_b[i + 1]:
            return False
    return True


def greedy_coloring_python(conflicts: List[Set[int]]) -> List[int]:
    """Greedy vertex colouring of the path-conflict graph (smallest available colour)."""
    colors = [-1] * len(conflicts)
    for vertex in range(len(conflicts)):
        used = {colors[other] for other in conflicts[vertex] if colors[other] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[vertex] = color
    return colors


def is_acyclic_python(num_nodes: int, edges: Set[Edge]) -> bool:
    """Union-find cycle check for an undirected edge set."""
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def bfs_spanning_tree_python(adj: List[List[int]], root: int,
                             rng: np.random.Generator) -> Set[Edge]:
    """BFS spanning tree rooted at ``root`` with randomised neighbour order."""
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


def spain_layers_python(num_nodes: int, edges: Sequence[Edge], sources: Sequence[int],
                        destinations: Sequence[int], paths_per_pair: int = 3,
                        seed: int = 0, max_layers: Optional[int] = None):
    """Scalar SPAIN construction — the trusted baseline for
    :func:`repro.routing.spain.build_spain_layers`.

    Per destination and source: up to ``paths_per_pair`` Dijkstra paths
    (:func:`weighted_shortest_path_python`), each pass adding ``|E|`` to the weight
    of every link an earlier path of the pair used; a source stops at its first
    repeated path.  The destination's paths (source-major, pass-minor order) are
    coloured greedily over the :func:`vlan_compatible_python` conflict graph, one
    VLAN per colour.  VLANs are merged in a shuffled order into the first merged
    layer whose union with them stays acyclic, then sorted by size (stable) and cut
    to ``max_layers - 1`` behind a BFS fallback spanning tree.

    Returns ``(layer_edge_sets, pair_paths)``: the layers' normalised edge sets in
    layer order and ``{(source, destination): [paths]}``.
    """
    rng = np.random.default_rng(seed)
    adj = adjacency_lists(num_nodes, edges)
    num_edges = len(edges)

    per_destination_vlans: List[Set[Edge]] = []
    pair_paths: Dict[Tuple[int, int], List[List[int]]] = {}
    for dest in destinations:
        dist_to_dest = bfs_distances_python(num_nodes, adj, dest)
        paths: List[List[int]] = []
        for src in sources:
            if src == dest or dist_to_dest[src] < 0:
                continue
            weights: Dict[Edge, float] = {}
            for _ in range(paths_per_pair):
                path = weighted_shortest_path_python(adj, weights, src, dest)
                if path is None:
                    break
                if path in paths:
                    break
                paths.append(path)
                pair_paths.setdefault((src, dest), []).append(path)
                for u, v in zip(path, path[1:]):
                    weights[_normalize(u, v)] = weights.get(_normalize(u, v), 0.0) + num_edges
        if not paths:
            continue
        conflicts: List[Set[int]] = [set() for _ in paths]
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                if not vlan_compatible_python(paths[i], paths[j]):
                    conflicts[i].add(j)
                    conflicts[j].add(i)
        colors = greedy_coloring_python(conflicts)
        for color in range(max(colors) + 1):
            edge_set: Set[Edge] = set()
            for path, c in zip(paths, colors):
                if c != color:
                    continue
                for u, v in zip(path, path[1:]):
                    edge_set.add(_normalize(u, v))
            if edge_set:
                per_destination_vlans.append(edge_set)

    order = list(range(len(per_destination_vlans)))
    rng.shuffle(order)
    merged: List[Set[Edge]] = []
    for idx in order:
        vlan = per_destination_vlans[idx]
        placed = False
        for target in merged:
            union = target | vlan
            if is_acyclic_python(num_nodes, union):
                target |= vlan
                placed = True
                break
        if not placed:
            merged.append(set(vlan))

    fallback = bfs_spanning_tree_python(adj, int(rng.integers(num_nodes)), rng)
    merged.sort(key=len, reverse=True)
    if max_layers is not None and len(merged) > max_layers - 1:
        merged = merged[: max_layers - 1]
    return [fallback] + merged, pair_paths
