"""Kernel/legacy equivalence: the vectorized CSR engine must reproduce the seed
repository's pure-Python BFS results *exactly* — distances, connectivity, diameters,
shortest-path counts and next-hop sets — on every topology generator and on random
degenerate graphs (isolated routers, empty edge lists, disconnected layers)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diversity.matrixcount import count_paths_matrix, count_shortest_paths, next_hop_sets
from repro.kernels import CSRGraph, batch_disjoint_paths, kernels_for, next_hop_table
from repro.kernels import reference as legacy
from repro.topologies import (
    complete_graph,
    dragonfly,
    fat_tree,
    flattened_butterfly,
    hyperx,
    jellyfish,
    slim_fly,
    star,
    xpander,
)


@functools.lru_cache(maxsize=None)
def generator_instances():
    """One small instance per topology generator (all families of the paper)."""
    return [
        slim_fly(5),
        dragonfly(2),
        hyperx(2, 3),
        flattened_butterfly(3),
        xpander(4, seed=0),
        fat_tree(4),
        jellyfish(20, 4, 2, seed=0),
        complete_graph(6),
        star(8),
    ]


@pytest.fixture(scope="module", params=range(9))
def topo(request):
    return generator_instances()[request.param]


class TestGeneratorEquivalence:
    def test_bfs_distances_match_legacy(self, topo):
        adj = legacy.adjacency_lists(topo.num_routers, topo.edges)
        for source in range(topo.num_routers):
            expected = legacy.bfs_distances_python(topo.num_routers, adj, source)
            got = topo.bfs_distances(source)
            assert got.dtype == expected.dtype
            assert (got == expected).all()

    def test_distance_matrix_matches_legacy(self, topo):
        expected = legacy.distance_matrix_python(topo.num_routers, topo.edges)
        got = kernels_for(topo).distance_matrix()
        assert (got == expected).all()

    def test_connectivity_matches_legacy(self, topo):
        assert topo.is_connected() == legacy.is_connected_python(topo.num_routers, topo.edges)

    def test_diameter_matches_legacy_eccentricities(self, topo):
        expected = int(legacy.distance_matrix_python(topo.num_routers, topo.edges).max())
        assert topo.diameter() == expected

    def test_average_path_length_matches_legacy(self, topo):
        mat = legacy.distance_matrix_python(topo.num_routers, topo.edges)
        mask = mat > 0
        pairs = int(mask.sum())
        expected = float(mat[mask].sum()) / pairs if pairs else 0.0
        assert topo.average_path_length() == pytest.approx(expected)

    def test_shortest_path_counts_match_legacy(self, topo):
        expected = legacy.count_shortest_paths_python(topo.num_routers, topo.edges)
        assert (count_shortest_paths(topo) == expected).all()

    def test_next_hop_sets_match_legacy(self, topo):
        if topo.num_routers > 40:  # the legacy propagation is O(n^3 deg); keep CI fast
            pytest.skip("legacy next-hop propagation too slow at this size")
        expected = legacy.next_hop_sets_python(topo.num_routers, topo.edges, 3)
        assert next_hop_sets(topo, 3) == expected

    def test_disjoint_paths_match_scalar_reference(self, topo):
        """Batched greedy CDP == scalar reference, pair for pair, counts and paths."""
        n = topo.num_routers
        if n < 2:
            pytest.skip("needs at least two routers to form a pair")
        rng = np.random.default_rng(7)
        pairs = []
        while len(pairs) < 12:
            s, t = rng.integers(0, n, size=2)
            if s != t:
                pairs.append((int(s), int(t)))
        max_len = (topo.diameter_hint or 2) + 1
        counts, paths = batch_disjoint_paths(
            kernels_for(topo).csr, np.asarray(pairs), max_len, return_paths=True)
        for (s, t), got, got_paths in zip(pairs, counts, paths):
            exp, exp_paths = legacy.greedy_disjoint_paths_python(
                n, topo.edges, [s], [t], max_len, return_paths=True)
            assert got == exp
            assert got_paths == exp_paths

    def test_disjoint_paths_share_no_edge(self, topo):
        """The CDP definition checked directly, without the scalar reference: every
        counted path is a simple walk over topology edges from ``s`` to ``t`` of at
        most ``max_len`` hops, no undirected edge serves two paths of one pair, and
        the greedy finds them shortest first (removing edges only lengthens paths)."""
        n = topo.num_routers
        if n < 2:
            pytest.skip("needs at least two routers to form a pair")
        edges = {frozenset(e) for e in topo.edges}
        degree = np.bincount(np.asarray(topo.edges).ravel(), minlength=n)
        rng = np.random.default_rng(11)
        pairs = [(int(s), int(t)) for s, t in rng.integers(0, n, size=(16, 2)) if s != t]
        max_len = (topo.diameter_hint or 2) + 1
        counts, paths = batch_disjoint_paths(
            kernels_for(topo).csr, np.asarray(pairs), max_len, return_paths=True)
        for (s, t), count, pair_paths in zip(pairs, counts, paths):
            assert count == len(pair_paths) <= min(degree[s], degree[t])
            used = set()
            for path in pair_paths:
                assert path[0] == s and path[-1] == t
                assert len(set(path)) == len(path) <= max_len + 1
                hops = [frozenset(hop) for hop in zip(path, path[1:])]
                assert all(hop in edges for hop in hops)
                assert used.isdisjoint(hops)
                used.update(hops)
            lengths = [len(path) for path in pair_paths]
            assert lengths == sorted(lengths)

    def test_next_hop_table_matches_scalar_reference(self, topo):
        """Vectorized next-hop tables == scalar reference, bit for bit, per seed."""
        kern = kernels_for(topo)
        dist = kern.distance_matrix()
        for seed in (0, 1, (3, 2)):
            expected = legacy.next_hop_table_python(
                topo.num_routers, topo.edges, kern.distance_matrix_float(), seed)
            assert (next_hop_table(kern.csr, dist, seed) == expected).all()

    def test_walk_counts_match_dense_power(self, topo):
        adj = np.zeros((topo.num_routers, topo.num_routers), dtype=np.int64)
        for u, v in topo.edges:
            adj[u, v] = 1
            adj[v, u] = 1
        assert (count_paths_matrix(topo, 3) == adj @ adj @ adj).all()


def random_edges(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(m):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return sorted(edges)


@given(n=st.integers(min_value=1, max_value=40),
       density=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_graph_distances_match_legacy(n, density, seed):
    """Property test over random (often disconnected/degenerate) graphs."""
    edges = random_edges(n, density * n, seed)
    csr = CSRGraph.from_edges(n, edges)
    expected = legacy.distance_matrix_python(n, edges)
    assert (csr.distance_matrix() == expected).all()
    assert csr.is_connected() == legacy.is_connected_python(n, edges)


@given(n=st.integers(min_value=2, max_value=25),
       density=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000),
       max_len=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_random_graph_path_kernels_match_legacy(n, density, seed, max_len):
    edges = random_edges(n, density * n, seed)
    csr = CSRGraph.from_edges(n, edges)
    from repro.kernels.paths import next_hop_sets_from_distances, shortest_path_counts

    dist = csr.distance_matrix()
    assert (shortest_path_counts(csr, dist)
            == legacy.count_shortest_paths_python(n, edges)).all()
    assert (next_hop_sets_from_distances(csr, dist, max_len)
            == legacy.next_hop_sets_python(n, edges, max_len))


@given(n=st.integers(min_value=2, max_value=20),
       density=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000),
       max_len=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_random_graph_disjoint_paths_match_reference(n, density, seed, max_len):
    """Batched greedy CDP on random (often degenerate) graphs: counts and concrete
    paths must match the scalar reference (the distance-bound pruning and
    relevant-set restriction only skip vertices that provably cannot sit on any
    qualifying path)."""
    edges = random_edges(n, density * n, seed)
    csr = CSRGraph.from_edges(n, edges)
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(4):
        sources = sorted(set(int(x) for x in rng.integers(0, n, size=rng.integers(1, 3))))
        targets = sorted(set(int(x) for x in rng.integers(0, n, size=rng.integers(1, 3))))
        items.append((sources, targets))
    pruned, pruned_paths = batch_disjoint_paths(csr, items, max_len, return_paths=True)
    for (sources, targets), got, got_paths in zip(items, pruned, pruned_paths):
        if set(sources) & set(targets):
            expected, expected_paths = 0, []
        else:
            expected, expected_paths = legacy.greedy_disjoint_paths_python(
                n, edges, sources, targets, max_len, return_paths=True)
        assert got == expected
        assert got_paths == expected_paths


def test_chunked_kernels_match_unchunked(monkeypatch):
    """Shrinking the chunk budgets to one entry (every item/row in its own chunk)
    must not change any result — chunking is purely a memory bound."""
    from repro.kernels import disjoint as disjoint_mod
    from repro.kernels import nexthop as nexthop_mod

    edges = random_edges(24, 60, seed=3)
    csr = CSRGraph.from_edges(24, edges)
    rng = np.random.default_rng(3)
    pairs = np.asarray([[int(s), int(t)] for s, t in
                        [rng.choice(24, size=2, replace=False) for _ in range(15)]])
    full_counts = batch_disjoint_paths(csr, pairs, 4)
    table = next_hop_table(csr, csr.distance_matrix(), 9)
    monkeypatch.setattr(disjoint_mod, "_CHUNK_ENTRY_BUDGET", 1)
    monkeypatch.setattr(nexthop_mod, "_CHUNK_ENTRY_BUDGET", 1)
    assert (batch_disjoint_paths(csr, pairs, 4) == full_counts).all()
    assert (next_hop_table(csr, csr.distance_matrix(), 9) == table).all()


@given(n=st.integers(min_value=1, max_value=30),
       density=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_random_graph_next_hop_tables_match_reference(n, density, seed):
    """Vectorized next-hop tables on random degenerate graphs (isolated routers,
    disconnected components): bit-identical to the scalar reference, for both the
    int (-1) and float (inf) distance-matrix forms."""
    edges = random_edges(n, density * n, seed)
    csr = CSRGraph.from_edges(n, edges)
    dist = csr.distance_matrix()
    dist_float = dist.astype(float)
    dist_float[dist < 0] = np.inf
    expected = legacy.next_hop_table_python(n, edges, dist_float, seed)
    assert (next_hop_table(csr, dist, seed) == expected).all()
    assert (next_hop_table(csr, dist_float, seed) == expected).all()
