"""Tests for FatPathsConfig and layer construction (Listings 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FatPathsConfig, recommended_config
from repro.core.layers import (
    LayerSet,
    build_layers,
    interference_minimizing_layers,
    random_edge_sampling_layers,
)
from repro.topologies import complete_graph


class TestConfig:
    def test_defaults_valid(self):
        cfg = FatPathsConfig()
        assert cfg.num_layers == 9
        assert 0 < cfg.rho <= 1

    @pytest.mark.parametrize("kwargs", [
        {"num_layers": 0},
        {"rho": 0.0},
        {"rho": 1.5},
        {"layer_algorithm": "magic"},
        {"min_extra_hops": 2, "max_extra_hops": 1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FatPathsConfig(**kwargs)

    def test_with_returns_modified_copy(self):
        cfg = FatPathsConfig()
        other = cfg.with_(rho=0.5)
        assert other.rho == 0.5
        assert cfg.rho != 0.5

    def test_recommended_config_by_family(self, sf_tiny, ft_tiny):
        sf_cfg = recommended_config(sf_tiny)
        assert sf_cfg.num_layers > 1
        ft_cfg = recommended_config(ft_tiny)
        assert ft_cfg.num_layers == 1  # fat trees keep minimal routing only
        tcp_cfg = recommended_config(sf_tiny, deployment="tcp")
        assert tcp_cfg.num_layers == 4

    def test_recommended_config_rejects_unknown_deployment(self, sf_tiny):
        with pytest.raises(ValueError):
            recommended_config(sf_tiny, deployment="quantum")

    def test_recommended_config_seed_override(self, sf_tiny):
        assert recommended_config(sf_tiny, seed=99).seed == 99


class TestRandomLayers:
    def test_layer_zero_is_full(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=4, rho=0.6))
        assert layers[0].is_full
        assert len(layers[0]) == sf_tiny.num_edges

    def test_sparse_layers_have_rho_fraction(self, sf_tiny):
        cfg = FatPathsConfig(num_layers=5, rho=0.6, seed=3)
        layers = random_edge_sampling_layers(sf_tiny, cfg)
        for frac in layers.edge_fractions()[1:]:
            assert frac == pytest.approx(0.6, abs=0.05)

    def test_layers_are_subsets_of_topology(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=4, rho=0.5, seed=1))
        all_edges = set(sf_tiny.edges)
        for layer in layers:
            assert set(layer.edges) <= all_edges

    def test_deterministic_given_seed(self, sf_tiny):
        cfg = FatPathsConfig(num_layers=3, rho=0.7, seed=5)
        a = random_edge_sampling_layers(sf_tiny, cfg)
        b = random_edge_sampling_layers(sf_tiny, cfg)
        assert [l.edges for l in a] == [l.edges for l in b]

    def test_different_layers_differ(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=4, rho=0.5, seed=0))
        assert layers[1].edges != layers[2].edges

    def test_rho_one_keeps_all_edges(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=3, rho=1.0))
        assert all(frac == 1.0 for frac in layers.edge_fractions())

    def test_single_layer_config(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=1, rho=1.0))
        assert len(layers) == 1

    def test_layer_contains_edge_helper(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=2, rho=0.9))
        u, v = next(iter(layers[1].edges))
        assert layers[1].contains_edge(u, v)
        assert layers[1].contains_edge(v, u)

    def test_subtopology_roundtrip(self, sf_tiny):
        layers = random_edge_sampling_layers(sf_tiny, FatPathsConfig(num_layers=2, rho=0.5, seed=2))
        sub = layers[1].subtopology(sf_tiny)
        assert sub.num_routers == sf_tiny.num_routers
        assert sub.num_edges == len(layers[1])

    @given(rho=st.floats(min_value=0.3, max_value=1.0), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_fraction_and_subset(self, rho, seed):
        topo = complete_graph(12)
        cfg = FatPathsConfig(num_layers=3, rho=rho, seed=seed)
        layers = random_edge_sampling_layers(topo, cfg)
        for layer in list(layers)[1:]:
            assert len(layer) == max(1, int(np.floor(rho * topo.num_edges)))
            assert set(layer.edges) <= set(topo.edges)


class TestInterferenceLayers:
    def test_layers_built_and_nonempty(self, sf_tiny):
        cfg = FatPathsConfig(num_layers=3, layer_algorithm="interference", seed=1)
        layers = interference_minimizing_layers(sf_tiny, cfg, pairs_per_layer=60)
        assert len(layers) == 3
        assert layers[0].is_full
        assert len(layers[1]) > 0
        assert set(layers[1].edges) <= set(sf_tiny.edges)

    def test_prefers_paths_longer_than_minimal(self, sf_tiny):
        """Sparse layers should carry almost-minimal (not minimal) paths: the layer's
        distance between a sampled pair exceeds the true minimal distance for a clear
        majority of pairs that the layer connects."""
        from repro.core.forwarding import build_forwarding_tables

        cfg = FatPathsConfig(num_layers=2, layer_algorithm="interference", seed=0,
                             min_extra_hops=1, max_extra_hops=2)
        layers = interference_minimizing_layers(sf_tiny, cfg, pairs_per_layer=80)
        tables = build_forwarding_tables(layers)
        rng = np.random.default_rng(0)
        longer = equal = 0
        for _ in range(60):
            s, t = rng.choice(sf_tiny.num_routers, size=2, replace=False)
            d_full = tables.distances[0][s, t]
            d_layer = tables.distances[1][s, t]
            if not np.isfinite(d_layer):
                continue
            if d_layer > d_full:
                longer += 1
            elif d_layer == d_full:
                equal += 1
        assert longer > 0

    def test_build_layers_dispatch(self, sf_tiny):
        random_set = build_layers(sf_tiny, FatPathsConfig(num_layers=2, layer_algorithm="random"))
        assert random_set.meta["algorithm"] == "random"
        interf_set = build_layers(sf_tiny, FatPathsConfig(num_layers=2,
                                                          layer_algorithm="interference"))
        assert interf_set.meta["algorithm"] == "interference"

    def test_build_layers_default_config(self, clique_tiny):
        layers = build_layers(clique_tiny)
        assert isinstance(layers, LayerSet)
        assert len(layers) == FatPathsConfig().num_layers


class TestBatchedResampling:
    def test_low_rho_layers_connected_or_first_kept(self):
        """Very low rho forces the blocked resampling path: every sparsified layer is
        either connected or the (arbitrary) first candidate kept as fallback, and all
        layers keep exactly the target edge count."""
        topo = complete_graph(10)
        cfg = FatPathsConfig(num_layers=6, rho=0.25, seed=7)
        layers = random_edge_sampling_layers(topo, cfg)
        target = max(1, int(np.floor(cfg.rho * topo.num_edges)))
        for layer in list(layers)[1:]:
            assert len(layer) == target
            assert set(layer.edges) <= set(topo.edges)

    def test_batched_resampling_still_deterministic(self):
        topo = complete_graph(10)
        cfg = FatPathsConfig(num_layers=5, rho=0.25, seed=3)
        a = random_edge_sampling_layers(topo, cfg)
        b = random_edge_sampling_layers(topo, cfg)
        assert [layer.edges for layer in a] == [layer.edges for layer in b]

    def test_common_case_matches_seed_sequential_loop(self):
        """With a connected first draw the batched path consumes exactly one
        permutation per layer — replaying the seed's sequential loop draws the same
        layers."""
        topo = complete_graph(12)
        cfg = FatPathsConfig(num_layers=4, rho=0.8, seed=11)
        layers = random_edge_sampling_layers(topo, cfg)
        rng = np.random.default_rng(cfg.seed)
        all_edges = [(u, v) for u, v in topo.edges]
        target = max(1, int(np.floor(cfg.rho * len(all_edges))))
        for layer in list(layers)[1:]:
            idx = rng.permutation(len(all_edges))[:target]
            assert layer.edges == frozenset(all_edges[i] for i in idx)
