"""Microbenchmarks of the library's computational kernels.

These complement the per-figure benchmarks: they measure the building blocks (layer
construction, forwarding-table population, max-min fair allocation, disjoint-path
counting, the flow simulator event loop) whose performance determines how far the
reproduction scales.
"""

import time

import numpy as np
import pytest

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.forwarding import build_forwarding_tables
from repro.core.layers import build_layers, random_edge_sampling_layers
from repro.diversity.disjoint_paths import disjoint_path_distribution
from repro.kernels import batch_disjoint_paths, global_cache, kernels_for, next_hop_table
from repro.kernels import reference as legacy
from repro.kernels.paths import shortest_path_counts
from repro.routing import EcmpRouting
from repro.routing.spain import build_spain_layers
from repro.sim.fairshare import max_min_fair_rates
from repro.sim.flowsim import simulate_workload
from repro.topologies import slim_fly
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation

@pytest.fixture(scope="module")
def sf():
    return slim_fly(9)   # 162 routers, k' = 13


# the scale-dependent `kgraph` Slim Fly for the legacy-vs-kernel pairs is shared
# with test_bench_cache.py via conftest.py


def test_bench_layer_construction(benchmark, sf):
    config = FatPathsConfig(num_layers=9, rho=0.7, seed=0)
    layers = benchmark(random_edge_sampling_layers, sf, config)
    assert len(layers) == 9


def test_bench_forwarding_tables(benchmark, sf):
    # cold: next-hop tables and layer distance matrices are cached since PR 2, so
    # the cache is cleared inside the timed region to measure real construction
    # (the warm-path counterpart lives in test_bench_cache.py)
    layers = build_layers(sf, FatPathsConfig(num_layers=4, rho=0.7, seed=0))

    def run():
        global_cache().clear()
        return build_forwarding_tables(layers)

    tables = benchmark(run)
    assert tables.num_layers == 4


def test_bench_disjoint_path_distribution(benchmark, sf):
    rng = np.random.default_rng(0)
    values = benchmark(disjoint_path_distribution, sf, 3, 50, rng)
    assert len(values) == 50


def test_bench_max_min_fair(benchmark):
    rng = np.random.default_rng(0)
    num_links, num_flows = 500, 2000
    caps = np.full(num_links, 1.25e9)
    paths = [list(rng.choice(num_links, size=4, replace=False)) for _ in range(num_flows)]
    rates = benchmark(max_min_fair_rates, paths, caps)
    assert rates.shape == (num_flows,)


def test_bench_flow_simulation(benchmark, sf):
    routing = FatPathsRouting(sf, FatPathsConfig(num_layers=4, rho=0.7, seed=0))
    pattern = random_permutation(sf.num_endpoints, np.random.default_rng(0)).subsample(
        0.2, np.random.default_rng(1))
    workload = uniform_size_workload(pattern, 256 * 1024)

    def run():
        return simulate_workload(sf, routing, workload, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert len(result) == len(workload)


def test_bench_ecmp_path_computation(benchmark, sf):
    routing = EcmpRouting(sf, max_paths=8, seed=0)
    rng = np.random.default_rng(0)
    pairs = [tuple(rng.choice(sf.num_routers, size=2, replace=False)) for _ in range(100)]

    def run():
        routing._cache.clear()
        return [routing.router_paths(int(s), int(t)) for s, t in pairs]

    paths = benchmark(run)
    assert len(paths) == 100


# --------------------------------------------------------------------------------------
# Legacy-vs-kernel pairs: the *same* computation on the *same* inputs via the seed
# repository's pure-Python implementations (repro.kernels.reference) and via the
# vectorized CSR engine.  Kernel variants run cold — the shared cache is cleared (or
# the computation includes its own APSP) inside the timed region — so the pairs are
# directly comparable.

def test_bench_apsp_legacy_python(benchmark, kgraph):
    result = benchmark(legacy.distance_matrix_python, kgraph.num_routers, kgraph.edges)
    assert result.shape == (kgraph.num_routers, kgraph.num_routers)


def test_bench_apsp_csr_kernels(benchmark, kgraph):
    def run():
        global_cache().clear()
        return kernels_for(kgraph).distance_matrix()

    result = benchmark(run)
    assert result.shape == (kgraph.num_routers, kgraph.num_routers)


def test_bench_path_counts_legacy_python(benchmark, kgraph):
    result = benchmark(legacy.count_shortest_paths_python, kgraph.num_routers, kgraph.edges)
    assert result.shape == (kgraph.num_routers, kgraph.num_routers)


def test_bench_path_counts_csr_kernels(benchmark, kgraph):
    # cold: the kernel computes its own distance matrix inside the timed region,
    # matching the legacy variant's from-scratch reachability bookkeeping
    csr = kernels_for(kgraph).csr

    result = benchmark(shortest_path_counts, csr)
    assert result.shape == (kgraph.num_routers, kgraph.num_routers)


#: Pairs per disjoint-path benchmark round — identical for both variants.
_DISJOINT_BENCH_PAIRS = 50

#: Path-length bound of the disjoint-path benchmark (the Fig 7 "almost minimal" l).
_DISJOINT_BENCH_MAXLEN = 3


def _disjoint_bench_pairs(kgraph):
    rng = np.random.default_rng(0)
    return [tuple(int(x) for x in rng.choice(kgraph.num_routers, size=2, replace=False))
            for _ in range(_DISJOINT_BENCH_PAIRS)]


def test_bench_disjoint_paths_legacy_python(benchmark, kgraph):
    pairs = _disjoint_bench_pairs(kgraph)

    def run():
        return [legacy.greedy_disjoint_paths_python(
            kgraph.num_routers, kgraph.edges, [s], [t], _DISJOINT_BENCH_MAXLEN)
            for s, t in pairs]

    result = benchmark(run)
    assert len(result) == len(pairs)


def test_bench_disjoint_paths_batched_kernel(benchmark, kgraph):
    # cold bounds: none are passed, so every round includes the kernel's own bound
    # computation (batched BFS over sources and targets).  The dense adjacency is
    # memoised on the CSRGraph after the first round — deliberately kept, since
    # sharing it across calls is the kernel's real steady-state behavior (the
    # legacy variant has no equivalent reusable state to warm).
    pairs = _disjoint_bench_pairs(kgraph)
    pair_arr = np.asarray(pairs)
    csr = kernels_for(kgraph).csr

    result = benchmark(batch_disjoint_paths, csr, pair_arr, _DISJOINT_BENCH_MAXLEN)
    assert len(result) == len(pairs)


def test_bench_next_hop_table_legacy_python(benchmark, kgraph):
    dist = kernels_for(kgraph).distance_matrix_float()

    result = benchmark(legacy.next_hop_table_python, kgraph.num_routers,
                       kgraph.edges, dist, 0)
    assert result.shape == (kgraph.num_routers, kgraph.num_routers)


def test_bench_next_hop_table_vectorized_kernel(benchmark, kgraph):
    kern = kernels_for(kgraph)
    csr, dist = kern.csr, kern.distance_matrix()

    result = benchmark(next_hop_table, csr, dist, 0)
    assert result.shape == (kgraph.num_routers, kgraph.num_routers)


#: Sources per BFS benchmark round — identical for the legacy and batched variants.
_BFS_BENCH_SOURCES = 64


def test_bench_multi_source_bfs_legacy_python(benchmark, kgraph):
    adj = legacy.adjacency_lists(kgraph.num_routers, kgraph.edges)
    sources = list(range(min(_BFS_BENCH_SOURCES, kgraph.num_routers)))

    def run():
        return [legacy.bfs_distances_python(kgraph.num_routers, adj, s) for s in sources]

    result = benchmark(run)
    assert len(result) == len(sources)


def test_bench_multi_source_bfs_csr_kernels(benchmark, kgraph):
    csr = kernels_for(kgraph).csr
    sources = list(range(min(_BFS_BENCH_SOURCES, kgraph.num_routers)))

    result = benchmark(csr.bfs_distances_batch, sources)
    assert result.shape == (len(sources), kgraph.num_routers)


# --------------------------------------------------------------------------------------
# SPAIN construction: the scalar spec vs the batched build on Figure 9's SPAIN
# configuration (3 paths per pair, 9 layers); tools/bench_report.py folds the pair
# into BENCH_flowsim.json as the ``spain_build`` section.

#: SPAIN destinations per benchmark round: Figure 9's worst-case matching size at
#: the scale, which bounds its SPAIN destination count (24 of 24 on SF at tiny).
_SPAIN_BENCH_DESTINATIONS = {"tiny": 24, "small": 40, "medium": 60}

#: Floor on the batched SPAIN construction's speedup over the scalar spec, asserted
#: at small and medium scale (about a third of the ~16x measured at small).
_SPAIN_SPEEDUP_FLOOR = 5.0


def _spain_bench_destinations(kgraph, scale):
    rng = np.random.default_rng(0)
    picks = rng.choice(kgraph.num_routers, size=_SPAIN_BENCH_DESTINATIONS[scale.value],
                       replace=False)
    return sorted(int(d) for d in picks)


def _spain_scalar(kgraph, destinations):
    """Figure 9's SPAIN configuration through the scalar spec."""
    return legacy.spain_layers_python(kgraph.num_routers, kgraph.edges,
                                      kgraph.endpoint_routers, destinations,
                                      paths_per_pair=3, seed=0, max_layers=9)


def _spain_batched(kgraph, destinations):
    """The same construction through the batched kernel, cold (cache cleared)."""
    global_cache().clear()
    layer_set, pair_paths = build_spain_layers(kgraph, paths_per_pair=3,
                                               destinations=destinations, seed=0,
                                               max_layers=9, return_paths=True)
    return [set(layer.edges) for layer in layer_set], pair_paths


def test_bench_spain_build_reference_scalar(benchmark, kgraph, scale):
    destinations = _spain_bench_destinations(kgraph, scale)
    layers, _ = benchmark.pedantic(_spain_scalar, args=(kgraph, destinations),
                                   rounds=1, iterations=1, warmup_rounds=0)
    assert len(layers) == 9


def test_bench_spain_build_batched(benchmark, kgraph, scale):
    destinations = _spain_bench_destinations(kgraph, scale)
    layers, _ = benchmark.pedantic(_spain_batched, args=(kgraph, destinations),
                                   rounds=3, iterations=1, warmup_rounds=0)
    assert len(layers) == 9


def test_spain_build_speedup_and_equivalence(kgraph, scale):
    """Time both SPAIN constructions on Figure 9's configuration, pin the batched
    output to the scalar spec, and (at small/medium scale) assert the speedup floor."""
    destinations = _spain_bench_destinations(kgraph, scale)
    start = time.perf_counter()
    expected = _spain_scalar(kgraph, destinations)
    scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    got = _spain_batched(kgraph, destinations)
    batched_seconds = time.perf_counter() - start

    assert got[0] == expected[0]
    assert got[1] == expected[1]
    speedup = scalar_seconds / max(batched_seconds, 1e-9)
    print(f"\nspain {scale.value}: {len(destinations)} destinations, scalar "
          f"{scalar_seconds:.2f} s, batched {batched_seconds:.2f} s, speedup {speedup:.1f}x")
    if scale.value != "tiny":
        assert speedup >= _SPAIN_SPEEDUP_FLOOR
