"""Tests for forwarding tables (Listing 3) and the FatPathsRouting facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.forwarding import UNREACHABLE, build_forwarding_tables
from repro.core.layers import build_layers
from repro.topologies import complete_graph, slim_fly
from repro.topologies.base import Topology


@pytest.fixture(scope="module")
def sf_routing():
    topo = slim_fly(5)
    return FatPathsRouting(topo, FatPathsConfig(num_layers=5, rho=0.7, seed=1))


class TestForwardingTables:
    def test_full_layer_paths_are_minimal(self, sf_tiny):
        layers = build_layers(sf_tiny, FatPathsConfig(num_layers=1, rho=1.0, seed=0))
        tables = build_forwarding_tables(layers)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, t = rng.choice(sf_tiny.num_routers, size=2, replace=False)
            path = tables.path(0, int(s), int(t))
            assert path[0] == s and path[-1] == t
            assert len(path) - 1 == int(tables.distances[0][s, t])

    def test_paths_are_valid_walks(self, sf_tiny):
        layers = build_layers(sf_tiny, FatPathsConfig(num_layers=4, rho=0.6, seed=2))
        tables = build_forwarding_tables(layers)
        edge_set = set(sf_tiny.edges)
        rng = np.random.default_rng(1)
        for _ in range(20):
            s, t = rng.choice(sf_tiny.num_routers, size=2, replace=False)
            for layer in range(tables.num_layers):
                path = tables.path(layer, int(s), int(t))
                assert path is not None
                for u, v in zip(path, path[1:]):
                    assert (min(u, v), max(u, v)) in edge_set

    def test_sparse_layer_paths_stay_inside_layer(self, sf_tiny):
        layers = build_layers(sf_tiny, FatPathsConfig(num_layers=3, rho=0.5, seed=3))
        tables = build_forwarding_tables(layers)
        layer_edges = set(layers[1].edges)
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(60):
            s, t = rng.choice(sf_tiny.num_routers, size=2, replace=False)
            if not tables.reachable(1, int(s), int(t)):
                continue
            path = tables.path(1, int(s), int(t), fallback_to_full=False)
            for u, v in zip(path, path[1:]):
                assert (min(u, v), max(u, v)) in layer_edges
            checked += 1
        assert checked > 10

    def test_path_identity_pair(self, sf_tiny):
        layers = build_layers(sf_tiny, FatPathsConfig(num_layers=2, rho=0.8))
        tables = build_forwarding_tables(layers)
        assert tables.path(0, 7, 7) == [7]

    def test_fallback_to_full_layer(self):
        # a path graph with a very sparse layer: most pairs unreachable in layer 1
        topo = Topology("path", 6, [(i, i + 1) for i in range(5)], 1)
        layers = build_layers(topo, FatPathsConfig(num_layers=2, rho=0.2, seed=0))
        tables = build_forwarding_tables(layers)
        path = tables.path(1, 0, 5)  # falls back to the full layer
        assert path is not None and path[0] == 0 and path[-1] == 5
        assert tables.path(1, 0, 5, fallback_to_full=False) is None or \
            tables.reachable(1, 0, 5)

    def test_next_hop_consistency(self, sf_tiny):
        layers = build_layers(sf_tiny, FatPathsConfig(num_layers=2, rho=0.7, seed=1))
        tables = build_forwarding_tables(layers)
        s, t = 0, 40
        hop = tables.next_hop(0, s, t)
        assert hop != UNREACHABLE
        assert hop in sf_tiny.adjacency()[s]

    def test_table_entries_positive(self, sf_tiny):
        layers = build_layers(sf_tiny, FatPathsConfig(num_layers=3, rho=0.7))
        tables = build_forwarding_tables(layers)
        assert tables.table_entries() > 0


class TestFatPathsRouting:
    def test_router_paths_start_end(self, sf_routing):
        paths = sf_routing.router_paths(0, 37)
        assert len(paths) >= 1
        for p in paths:
            assert p[0] == 0 and p[-1] == 37

    def test_paths_are_unique(self, sf_routing):
        paths = sf_routing.router_paths(3, 44)
        assert len({tuple(p) for p in paths}) == len(paths)

    def test_same_router_single_trivial_path(self, sf_routing):
        assert sf_routing.router_paths(5, 5) == [[5]]

    def test_endpoint_paths(self, sf_routing):
        topo = sf_routing.topology
        p = topo.concentration
        paths = sf_routing.endpoint_paths(0, 9 * p)
        assert paths[0][0] == topo.router_of_endpoint(0)
        assert paths[0][-1] == topo.router_of_endpoint(9 * p)

    def test_repeated_calls_return_fresh_equal_paths(self, sf_routing):
        """Paths are rebuilt from the forwarding tables on every call: editing a
        returned list changes nothing a later call returns."""
        first = sf_routing.router_paths(1, 30)
        expected = [list(p) for p in first]
        first[0].append(-1)
        first.append([1, 30])
        assert sf_routing.router_paths(1, 30) == expected

    def test_exposes_nonminimal_paths(self, sf_routing):
        """At least some pairs must see paths longer than minimal (the whole point)."""
        rng = np.random.default_rng(0)
        saw_nonminimal = False
        for _ in range(40):
            s, t = rng.choice(sf_routing.topology.num_routers, size=2, replace=False)
            dmin = sf_routing.minimal_distance(int(s), int(t))
            lengths = [len(p) - 1 for p in sf_routing.router_paths(int(s), int(t))]
            if any(l > dmin for l in lengths):
                saw_nonminimal = True
                break
        assert saw_nonminimal

    def test_enough_paths_for_collision_target(self, sf_routing):
        """FatPaths should expose >= 3 distinct paths for the typical router pair."""
        stats = sf_routing.path_statistics(num_samples=60, rng=np.random.default_rng(0))
        assert stats.mean_num_paths >= 2.5
        assert stats.mean_stretch >= 1.0

    def test_minimal_distance_matches_bfs(self, sf_routing):
        topo = sf_routing.topology
        dist = topo.bfs_distances(0)
        for t in (10, 20, 49):
            assert sf_routing.minimal_distance(0, t) == dist[t]

    def test_deployment_defaults(self, sf_tiny):
        ethernet = FatPathsRouting(sf_tiny, deployment="ethernet", seed=0)
        tcp = FatPathsRouting(sf_tiny, deployment="tcp", seed=0)
        assert ethernet.num_layers > tcp.num_layers

    def test_forwarding_entries_scale_with_layers(self, sf_tiny):
        small = FatPathsRouting(sf_tiny, FatPathsConfig(num_layers=2, rho=0.7, seed=0))
        large = FatPathsRouting(sf_tiny, FatPathsConfig(num_layers=6, rho=0.7, seed=0))
        assert large.forwarding_entries() > small.forwarding_entries()

    def test_clique_paths(self, clique_tiny):
        routing = FatPathsRouting(clique_tiny, FatPathsConfig(num_layers=4, rho=0.5, seed=0))
        paths = routing.router_paths(0, 5)
        assert [0, 5] in paths  # the direct link is always there via the full layer


@given(seed=st.integers(0, 30), rho=st.floats(min_value=0.4, max_value=1.0))
@settings(max_examples=10, deadline=None)
def test_property_all_paths_valid(seed, rho):
    """Every path FatPaths returns is a valid loop-free walk from source to target."""
    topo = complete_graph(10)
    routing = FatPathsRouting(topo, FatPathsConfig(num_layers=3, rho=rho, seed=seed))
    adjacency = topo.adjacency()
    rng = np.random.default_rng(seed)
    s, t = rng.choice(10, size=2, replace=False)
    for path in routing.router_paths(int(s), int(t)):
        assert path[0] == s and path[-1] == t
        assert len(set(path)) == len(path)
        for u, v in zip(path, path[1:]):
            assert v in adjacency[u]
