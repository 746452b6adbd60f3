"""Microbenchmarks of the library's computational kernels.

These complement the per-figure benchmarks: they measure the building blocks (layer
construction, forwarding-table population, max-min fair allocation, disjoint-path
counting, the flow simulator event loop) whose performance determines how far the
reproduction scales.
"""

import copy
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.forwarding import build_forwarding_tables
from repro.core.loadbalance import FlowletSelector, PathSelector
from repro.core.layers import build_layers, random_edge_sampling_layers
from repro.diversity.disjoint_paths import disjoint_path_distribution
from repro.experiments.common import run_experiment
from repro.experiments.simcommon import build_stack
from repro.kernels import batch_disjoint_paths, global_cache, kernels_for, next_hop_table
from repro.kernels import reference as legacy
from repro.kernels.paths import shortest_path_counts
from repro.routing import EcmpRouting
from repro.routing.spain import build_spain_layers
from repro.sim import allocstate
from repro.sim.fairshare import leveled_fill, max_min_fair_rates
from repro.sim.flowsim import simulate_workload
from repro.sim.stream import StreamConfig, StreamSimulator
from repro.topologies import configs, slim_fly
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation
from repro.traffic.streams import poisson_flow_stream

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


# --------------------------------------------------------------------------------------
# Capture and replay of the flow engine's two per-event kernels: the progressive fill
# (``fairshare.leveled_fill``) and the adaptive selector draw
# (``FlowletSelector.next_path_batch``).  A module fixture records their inputs on two
# real runs; the replays are checked against the scalar forms and timed on their own,
# so a change to either kernel is judged on real inputs.  tools/bench_report.py folds
# the timings into BENCH_flowsim.json as the ``engine_replay`` section.

#: Pushes of two flows each in the captured stream (perfbench's stream settings).
_REPLAY_PUSHES = 2000

#: Every n-th fill and every n-th adaptive draw is kept, per captured run.
_STREAM_STRIDE = 5
_FIG17_STRIDE = 10


def _captured(run, stride: int) -> SimpleNamespace:
    """Run ``run()`` with every ``stride``-th fill and adaptive draw recorded.

    A fill is recorded as its positional arguments; a draw as the selector's seed,
    threshold and RNG state before the call, its arguments and its choices.
    """
    fills, draws = [], []
    seen = {"fills": 0, "draws": 0}
    batch = FlowletSelector.next_path_batch

    def kept(kind):
        """Count one call of ``kind``; keep the first and every ``stride``-th after."""
        seen[kind] += 1
        return (seen[kind] - 1) % stride == 0

    def fill(*args):
        if kept("fills"):
            fills.append(tuple(copy.copy(a) for a in args))
        return leveled_fill(*args)

    def draw(self, *args):
        if not (self.adaptive and kept("draws")):
            return batch(self, *args)
        state = copy.deepcopy(self._rng.bit_generator.state)
        chosen = batch(self, *args)
        draws.append((self.seed, self.congestion_threshold, state,
                       tuple(np.array(a) for a in args), chosen.copy()))
        return chosen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocstate, "leveled_fill", fill)
        patch.setattr(FlowletSelector, "next_path_batch", draw)
        run()
    return SimpleNamespace(fills=fills, draws=draws)


def _stream_run(scale):
    """One fatpaths stream on SF with perfbench's stream generator settings."""
    topology = configs.build("SF", scale.size_class())
    rng = np.random.default_rng([0, 0])
    pattern = random_permutation(topology.num_endpoints, rng).subsample(0.5, rng)
    flows = list(poisson_flow_stream(pattern, 400.0, rng=rng,
                                     max_flows=2 * _REPLAY_PUSHES))
    stack = build_stack(topology, "fatpaths", seed=0, routing_cache={})
    service = StreamSimulator(topology, stack.routing, selector=stack.selector,
                              transport=stack.transport, seed=0,
                              stream_config=StreamConfig(window=0.001))
    batches = [flows[i:i + 2] for i in range(0, len(flows), 2)]
    for i, batch in enumerate(batches):
        service.push(batch)
        if i + 1 < len(batches):
            service.advance(batches[i + 1][0].start_time, inclusive=False)
        else:
            service.finish()


@pytest.fixture(scope="module")
def engine_captures(scale):
    """A sample of the fills and adaptive draws of one stream and one fig17 cell."""
    stream = _captured(lambda: _stream_run(scale), _STREAM_STRIDE)
    fig17 = _captured(lambda: run_experiment("fig17", scale=scale, seed=0,
                                             topologies=("SF",)), _FIG17_STRIDE)
    captures = SimpleNamespace(fills=stream.fills + fig17.fills,
                               draws=stream.draws + fig17.draws)
    assert captures.fills and captures.draws
    return captures


def _flow_link_lists(entry_flows, compressed):
    """Each filled flow's link list (entry order) and the flows that have entries."""
    order = np.argsort(entry_flows, kind="stable")
    flows = entry_flows[order]
    bounds = np.flatnonzero(np.diff(flows)) + 1
    present = flows[np.concatenate(([0], bounds))] if flows.size else flows
    return [part.tolist() for part in np.split(compressed[order], bounds)], present


def test_replayed_fills_match_scalar_reference(engine_captures):
    """Every captured fill equals ``max_min_fair_rates`` bit for bit."""
    mismatches = 0
    for entry_flows, num_flows, caps, compressed, num_touched in engine_captures.fills:
        rates = leveled_fill(entry_flows, num_flows, caps, compressed, num_touched)[0]
        paths, present = _flow_link_lists(entry_flows, compressed)
        if not np.array_equal(rates[present], max_min_fair_rates(paths, caps)):
            mismatches += 1
    assert mismatches == 0, f"{mismatches} of {len(engine_captures.fills)} fills differ"


def _replay_draw(record, batched: bool):
    """Replay one captured draw from its RNG state; (choices, state after)."""
    seed, threshold, state, args, _ = record
    selector = FlowletSelector(seed=seed, adaptive=True, congestion_threshold=threshold)
    selector._rng.bit_generator.state = copy.deepcopy(state)
    if batched:
        chosen = selector.next_path_batch(*args)
    else:
        chosen = PathSelector.next_path_batch(selector, *args)
    return chosen, selector._rng.bit_generator.state


def test_replayed_draws_match_scalar_calls(engine_captures):
    """Every captured draw equals one scalar ``next_path`` per row: the same
    choices (also as captured) and the same RNG state afterwards."""
    mismatches = 0
    for record in engine_captures.draws:
        fast, fast_state = _replay_draw(record, batched=True)
        slow, slow_state = _replay_draw(record, batched=False)
        if not (np.array_equal(fast, slow) and np.array_equal(fast, record[4])
                and fast_state == slow_state):
            mismatches += 1
    assert mismatches == 0, f"{mismatches} of {len(engine_captures.draws)} draws differ"


def test_bench_fill_replay(benchmark, engine_captures):
    fills = engine_captures.fills

    def run():
        for args in fills:
            leveled_fill(*args)

    benchmark.extra_info["calls"] = len(fills)
    benchmark(run)


def test_bench_draw_replay(benchmark, engine_captures):
    # selectors are made and seeded outside the timed region; each round re-seeds
    # them from the captured states, which costs a small fixed share of a draw
    records = engine_captures.draws
    selectors = [FlowletSelector(seed=seed, adaptive=True, congestion_threshold=threshold)
                 for seed, threshold, *_ in records]

    def run():
        for selector, (_, _, state, args, _) in zip(selectors, records):
            selector._rng.bit_generator.state = state
            selector.next_path_batch(*args)

    benchmark.extra_info["calls"] = len(records)
    benchmark(run)
