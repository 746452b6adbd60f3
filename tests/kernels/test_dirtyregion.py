"""Faulted kernels are ordinary cached graphs: ``faulted_kernels(topology, failed)``
must equal a from-scratch build over the surviving edges (distances, shortest-path
counts, and the reference simulator's scalar BFS rows), an empty failed set must
return the pristine cache entry itself, and a faulted engine run must fetch the
surviving graph's kernels at most once per fault epoch."""

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.experiments.simcommon import build_stack
from repro.kernels.cache import GraphKernels, PathCache, fingerprint_edges
from repro.kernels.csr import CSRGraph
from repro.kernels.dirtyregion import faulted_kernels
from repro.sim.engine import EngineCore, FlowEngine
from repro.sim.faults import FaultEvent, FaultSchedule, bfs_distances_subgraph
from repro.sim.flowsim import FlowSimConfig
from repro.topologies import comparable_configurations
from repro.topologies.configs import SizeClass
from repro.traffic.flows import poisson_workload
from repro.traffic.patterns import random_permutation

FAMILIES = ("SF", "HX3")


@pytest.fixture(scope="module")
def topologies():
    return comparable_configurations(SizeClass.TINY, topologies=list(FAMILIES), seed=0)


def failed_sets(topo, seed):
    """Random link sets of several sizes plus one and two whole-switch outages."""
    rng = np.random.default_rng(seed)
    out = []
    for count in (1, 3, max(4, topo.num_edges // 10)):
        chosen = rng.choice(topo.num_edges, size=count, replace=False)
        out.append({topo.edges[int(i)] for i in chosen})
    for switches in ([int(rng.integers(topo.num_routers))],
                     rng.choice(topo.num_routers, size=2, replace=False).tolist()):
        out.append({e for e in topo.edges if e[0] in switches or e[1] in switches})
    return out


def scratch_kernels(topo, failed):
    """An uncached build over the surviving edges."""
    edges = sorted(set(topo.edges) - failed)
    return GraphKernels(CSRGraph.from_edges(topo.num_routers, edges),
                        fingerprint_edges(topo.num_routers, edges))


class TestFaultedKernels:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_scratch_build(self, topologies, family, seed):
        topo = topologies[family]
        cache = PathCache()
        for failed in failed_sets(topo, seed):
            faulted = faulted_kernels(topo, failed, cache=cache)
            scratch = scratch_kernels(topo, failed)
            np.testing.assert_array_equal(faulted.distance_matrix(),
                                          scratch.distance_matrix())
            np.testing.assert_array_equal(faulted.shortest_path_counts(),
                                          scratch.shortest_path_counts())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_equal_reference_bfs(self, topologies, family):
        """Every distance row equals the reference simulator's scalar BFS over
        the surviving subgraph, the spec the engine's detours must follow."""
        topo = topologies[family]
        adjacency = topo.adjacency()
        cache = PathCache()
        for failed in failed_sets(topo, 7):
            faulted = faulted_kernels(topo, failed, cache=cache)
            for source in range(topo.num_routers):
                assert faulted.distances_from(source).tolist() == \
                    bfs_distances_subgraph(adjacency, failed, source)

    def test_equal_failed_sets_share_one_entry(self, topologies):
        topo = topologies["SF"]
        cache = PathCache()
        failed = failed_sets(topo, 1)[1]
        first = faulted_kernels(topo, failed, cache=cache)
        assert faulted_kernels(topo, [(v, u) for u, v in failed], cache=cache) is first
        assert cache.stats()["graphs"] == 1

    def test_no_failures_is_the_pristine_entry(self, topologies):
        topo = topologies["SF"]
        cache = PathCache()
        pristine = cache.kernels(topo.num_routers, topo.edges,
                                 fingerprint=topo.fingerprint())
        assert faulted_kernels(topo, set(), cache=cache) is pristine
        assert faulted_kernels(topo, frozenset(), cache=cache) is pristine

    def test_fail_then_restore_returns_pristine_entry(self, topologies):
        """A fail/restore cycle ends on the *same* cached object — no rebuild —
        because the restored edge set fingerprints back to the pristine key."""
        topo = topologies["SF"]
        cache = PathCache()
        pristine = faulted_kernels(topo, set(), cache=cache)
        pristine.distance_matrix()
        degraded = faulted_kernels(topo, {topo.edges[0], topo.edges[5]}, cache=cache)
        assert degraded is not pristine
        assert faulted_kernels(topo, set(), cache=cache) is pristine

    def test_evicted_pristine_rebuilds_bit_identical(self, topologies):
        """When the pristine entry is evicted during the outage, the restore is a
        cold rebuild whose arrays equal the pristine ones bit-for-bit."""
        topo = topologies["SF"]
        cache = PathCache(maxsize=1)
        pristine = faulted_kernels(topo, set(), cache=cache)
        dist, counts = pristine.distance_matrix(), pristine.shortest_path_counts()
        failed = {topo.edges[0]}
        degraded = faulted_kernels(topo, failed, cache=cache)   # evicts the pristine
        assert len(cache) == 1
        np.testing.assert_array_equal(degraded.distance_matrix(),
                                      scratch_kernels(topo, failed).distance_matrix())
        restored = faulted_kernels(topo, set(), cache=cache)
        assert restored is not pristine
        np.testing.assert_array_equal(restored.distance_matrix(), dist)
        np.testing.assert_array_equal(restored.shortest_path_counts(), counts)


def random_connected_graph(n, extra_edges, rng):
    """A ring (always connected) plus random chords, normalized and deduped."""
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(edges) < n + extra_edges:
        u, v = rng.choice(n, size=2, replace=False)
        edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return sorted(edges)


def fresh_kernels(num_nodes, edges):
    """An uncached build of ``(num_nodes, edges)``."""
    return GraphKernels(CSRGraph.from_edges(num_nodes, edges),
                        fingerprint_edges(num_nodes, edges))


class TestMutated:
    """``PathCache.mutated`` directly, on edge lists other than a topology's."""

    N = 24

    @pytest.mark.parametrize("seed", range(5))
    def test_removal_matches_scratch_build(self, seed):
        """Removed edges may come in either orientation and more than once."""
        rng = np.random.default_rng(seed)
        edges = random_connected_graph(self.N, 14, rng)
        removed = [edges[int(i)] for i in rng.choice(len(edges), size=3, replace=False)]
        cache = PathCache()
        base = cache.kernels(self.N, edges)
        faulted = cache.mutated(self.N, edges, [(v, u) for u, v in removed] + removed[:1])
        scratch = fresh_kernels(self.N, sorted(set(edges) - set(removed)))
        assert faulted is not base
        np.testing.assert_array_equal(faulted.distance_matrix(), scratch.distance_matrix())
        np.testing.assert_array_equal(faulted.shortest_path_counts(),
                                      scratch.shortest_path_counts())
        assert cache.mutated(self.N, edges, []) is base

    def test_edge_shared_by_multiple_layers(self, topologies):
        """Each layer holding the failed edge gets its own surviving entry, a layer
        without it keeps its cached entry, and a restore returns every layer's
        pristine entry."""
        topo = topologies["SF"]
        n, shared = topo.num_routers, topo.edges[0]
        layers = [[e for e in topo.edges if 0 in e or e == shared],
                  list(topo.edges[:30]),
                  [e for e in topo.edges if e != shared][:25]]
        assert [shared in layer for layer in layers] == [True, True, False]
        cache = PathCache()
        before = [cache.mutated(n, layer, ()) for layer in layers]
        after = [cache.mutated(n, layer, [shared]) for layer in layers]
        assert after[2] is before[2]
        for layer, entry, old in zip(layers[:2], after, before):
            assert entry is not old
            np.testing.assert_array_equal(
                entry.distance_matrix(),
                fresh_kernels(n, sorted(set(layer) - {shared})).distance_matrix())
        restored = [cache.mutated(n, layer, ()) for layer in layers]
        assert all(r is b for r, b in zip(restored, before))


def test_engine_fetches_surviving_kernels_once_per_epoch(monkeypatch, topologies):
    """Detours share one surviving-graph lookup per fault epoch, however many
    detour sources the epoch sees."""
    topo = topologies["SF"]
    epoch, calls = [0], []
    real_apply = EngineCore.apply_fault_epoch

    def apply(self, deltas):
        epoch[0] += 1
        return real_apply(self, deltas)

    def counted(topology, failed_edges, cache=None):
        calls.append(epoch[0])
        return faulted_kernels(topology, failed_edges, cache=cache)

    monkeypatch.setattr(EngineCore, "apply_fault_epoch", apply)
    monkeypatch.setattr(engine_module, "faulted_kernels", counted)
    rng = np.random.default_rng(3)
    workload = poisson_workload(random_permutation(topo.num_endpoints, rng), 2000.0,
                                0.002, rng=rng)
    switches = (0, 7, 19)
    schedule = FaultSchedule(events=tuple(
        FaultEvent(time=0.0003 * (k + 1), action=action, switch=s)
        for k, (action, s) in enumerate(
            [("fail", switches[0]), ("fail", switches[1]), ("restore", switches[0]),
             ("fail", switches[2]), ("restore", switches[1]),
             ("restore", switches[2])])))
    stack = build_stack(topo, "ecmp", seed=0)
    result = FlowEngine(topo, stack.routing, selector=stack.selector,
                        transport=stack.transport,
                        config=FlowSimConfig(faults=schedule)).run(workload)
    assert result.meta["fault_events"] == epoch[0] == 6
    assert len(set(calls)) >= 2            # detours in several epochs
    assert len(calls) == len(set(calls))   # at most one lookup per epoch
