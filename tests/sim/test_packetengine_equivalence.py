"""Packet engine/reference equivalence: the vectorized packet engine must reproduce
the scalar packet simulator *record for record* — every FlowRecord field, every meta
counter and the full per-link serialisation schedule bit-identically — across every
simcommon stack (both transports), multiple topologies, and the simulator's edge
paths (same-router flows, single-path routings, sprayed flows, flows that never
finish).  Both raise the same error for a run that exceeds ``max_events``."""

import numpy as np
import pytest

from repro.core.loadbalance import EcmpSelector, FlowletSelector
from repro.experiments.common import topology_rng
from repro.experiments.simcommon import STACKS, build_stack
from repro.routing import EcmpRouting
from repro.sim.packetengine import PacketEngine
from repro.sim.packetsim import simulate_packets
from repro.sim.packetsim_reference import PacketLevelSimulator, _Link
from repro.sim.simconfig import PacketSimConfig
from repro.topologies import comparable_configurations, star
from repro.topologies.configs import SizeClass
from repro.traffic.flows import Flow, Workload, poisson_workload, uniform_size_workload
from repro.traffic.patterns import random_permutation


TOPOLOGY_NAMES = ("SF", "FT3")


def assert_equivalent(reference, engine):
    """Bit-identical record-for-record comparison (no tolerances: the packet engine
    replays the reference's float expressions exactly)."""
    assert len(reference) == len(engine)
    assert reference.meta == engine.meta
    assert reference.records == engine.records


def assert_link_state_equal(eng_sim, ref_sim):
    """The engine's flat post-run link arrays equal the reference's link objects."""
    state = eng_sim.final_link_state
    assert state["next_free"] == [link.next_free for link in ref_sim.links]
    assert state["queued"] == [link.queued for link in ref_sim.links]
    assert state["trims"] == [link.trims for link in ref_sim.links]
    assert state["drops"] == [link.drops for link in ref_sim.links]


#: The scalar reference (the oracle) first, then the vectorized engine.
SIMULATORS = (PacketLevelSimulator, PacketEngine)


def build_both(topology, stack_name, config=None, seed=0):
    """Both implementations over freshly built identical stacks."""
    sims = []
    for sim_cls in SIMULATORS:
        stack = build_stack(topology, stack_name, seed=seed)
        sims.append(sim_cls(topology, stack.routing, selector=stack.selector,
                            transport=stack.transport, config=config, seed=seed))
    return sims


def run_both(topology, stack_name, workload, config=None, seed=0):
    """One workload under freshly built identical stacks on both implementations."""
    return [sim.run(workload) for sim in build_both(topology, stack_name, config, seed)]


@pytest.fixture(scope="module")
def topologies():
    return comparable_configurations(SizeClass.TINY, topologies=list(TOPOLOGY_NAMES),
                                     seed=0)


@pytest.fixture(scope="module")
def workloads(topologies):
    out = {}
    for name, topo in topologies.items():
        rng = np.random.default_rng(0)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.2, rng)
        out[name] = {
            "uniform": uniform_size_workload(pattern, 96 * 1024),
            "poisson": poisson_workload(pattern, 2000.0, 0.001,
                                        rng=np.random.default_rng(2),
                                        fixed_size=64 * 1024),
        }
    return out


class TestAllStacks:
    """The acceptance grid: every simcommon stack (both transports) on two
    topology families."""

    @pytest.mark.parametrize("stack_name", STACKS)
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    def test_uniform_workload(self, topologies, workloads, topo_name, stack_name):
        reference, engine = run_both(topologies[topo_name], stack_name,
                                     workloads[topo_name]["uniform"])
        assert_equivalent(reference, engine)

    @pytest.mark.parametrize("stack_name", ["fatpaths", "fatpaths_tcp", "ndp"])
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    def test_poisson_arrivals(self, topologies, workloads, topo_name, stack_name):
        reference, engine = run_both(topologies[topo_name], stack_name,
                                     workloads[topo_name]["poisson"])
        assert_equivalent(reference, engine)


class TestSerializationTrace:
    """Beyond the records: the full per-link serialisation schedule must match
    element for element (same links, same departure floats, same order)."""

    @pytest.mark.parametrize("stack_name", ["fatpaths", "fatpaths_tcp", "ndp"])
    def test_trace_identical(self, topologies, workloads, stack_name, monkeypatch):
        topo = topologies["SF"]
        workload = workloads["SF"]["uniform"]

        stack = build_stack(topo, stack_name, seed=0)
        ref_sim = PacketLevelSimulator(topo, stack.routing, selector=stack.selector,
                                       transport=stack.transport, seed=0)
        ref_trace = []
        index_of = {id(link): i for i, link in enumerate(ref_sim.links)}
        orig = _Link.serialize

        def spying_serialize(self, now, size_bytes):
            departure, arrival = orig(self, now, size_bytes)
            ref_trace.append((index_of[id(self)], departure))
            return departure, arrival

        monkeypatch.setattr(_Link, "serialize", spying_serialize)
        ref_result = ref_sim.run(workload)
        monkeypatch.setattr(_Link, "serialize", orig)

        stack2 = build_stack(topo, stack_name, seed=0)
        eng_sim = PacketEngine(topo, stack2.routing, selector=stack2.selector,
                               transport=stack2.transport, seed=0)
        eng_sim.trace = []
        eng_result = eng_sim.run(workload)

        assert_equivalent(ref_result, eng_result)
        assert eng_sim.trace == ref_trace

    def test_final_link_state_identical(self, topologies, workloads):
        """The engine's flat link arrays end bit-identical to the reference's
        per-link objects (occupancy drains flushed, reservations matched)."""
        workload = workloads["SF"]["uniform"]
        ref_sim, eng_sim = build_both(topologies["SF"], "ndp")
        assert_equivalent(ref_sim.run(workload), eng_sim.run(workload))
        assert_link_state_equal(eng_sim, ref_sim)


class TestEdgePaths:
    def test_same_router_flows(self, topologies):
        """Endpoints on one router take the synthetic single-hop candidate."""
        topo = topologies["SF"]
        workload = Workload([Flow(0.0, 0, 1, 256 * 1024), Flow(0.0, 2, 40, 512 * 1024)])
        reference, engine = run_both(topo, "fatpaths", workload)
        assert_equivalent(reference, engine)
        assert reference.records[0].path_hops == 1

    def test_single_path_flows(self, topologies):
        """A max_paths=1 routing never offers alternatives, so no switches happen."""
        topo = topologies["SF"]
        workload = uniform_size_workload(
            random_permutation(topo.num_endpoints,
                               np.random.default_rng(1)).subsample(0.2,
                                                                   np.random.default_rng(2)),
            64 * 1024)
        results = []
        for sim_cls in SIMULATORS:
            routing = EcmpRouting(topo, max_paths=1, seed=0)
            sim = sim_cls(topo, routing, selector=FlowletSelector(seed=0), seed=0)
            results.append(sim.run(workload))
        assert_equivalent(*results)
        assert all(r.num_path_switches == 0 for r in results[1].records)

    def test_sprayed_flows_on_star(self):
        """Packet-spray selector on a crossbar (NDP's home turf)."""
        topo = star(12)
        workload = uniform_size_workload(
            random_permutation(topo.num_endpoints, np.random.default_rng(3)),
            128 * 1024)
        reference, engine = run_both(topo, "ndp", workload)
        assert_equivalent(reference, engine)

    def test_ecmp_selector_static_paths(self, topologies):
        """Hash-based selector: no RNG at all, still pinned."""
        topo = topologies["FT3"]
        workload = uniform_size_workload(
            random_permutation(topo.num_endpoints,
                               np.random.default_rng(7)).subsample(0.3,
                                                                   np.random.default_rng(8)),
            256 * 1024)
        results = []
        for sim_cls in SIMULATORS:
            routing = EcmpRouting(topo, max_paths=8, seed=0)
            sim = sim_cls(topo, routing, selector=EcmpSelector(seed=0), seed=0)
            results.append(sim.run(workload))
        assert_equivalent(*results)


class TestMaxEventsGuard:
    """``max_events`` is a guard, not a truncation: a run that needs more events
    raises the same one-line error in both simulators (the reference counts pops,
    the engine pushes), and a budget that covers the run changes nothing."""

    STACK_NAMES = ["fatpaths", "fatpaths_tcp", "ndp"]

    @staticmethod
    def _events(topologies, workloads, stack_name):
        """The event count N of the unbudgeted run, plus its two results."""
        results = run_both(topologies["SF"], stack_name, workloads["SF"]["uniform"])
        assert_equivalent(*results)
        return results[0].meta["events"], results

    @pytest.mark.parametrize("budget", [3, 50, -1], ids=["3", "50", "N-1"])
    @pytest.mark.parametrize("stack_name", STACK_NAMES)
    def test_over_budget_raises(self, topologies, workloads, stack_name, budget):
        if budget < 0:
            budget += self._events(topologies, workloads, stack_name)[0]
        messages = []
        for sim in build_both(topologies["SF"], stack_name,
                              config=PacketSimConfig(max_events=budget)):
            with pytest.raises(RuntimeError, match=f"max_events={budget} ") as info:
                sim.run(workloads["SF"]["uniform"])
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "\n" not in messages[0]

    @pytest.mark.parametrize("offset", [0, 1], ids=["N", "N+1"])
    @pytest.mark.parametrize("stack_name", STACK_NAMES)
    def test_covering_budget_changes_nothing(self, topologies, workloads, stack_name,
                                             offset):
        full, unbudgeted = self._events(topologies, workloads, stack_name)
        workload = workloads["SF"]["uniform"]
        ref_sim, eng_sim = build_both(topologies["SF"], stack_name,
                                      config=PacketSimConfig(max_events=full + offset))
        reference, engine = ref_sim.run(workload), eng_sim.run(workload)
        assert_equivalent(reference, engine)
        assert_equivalent(unbudgeted[1], engine)
        assert_link_state_equal(eng_sim, ref_sim)
        assert eng_sim.last_stats is not None


class TestUnfinishedFlows:
    """Lossy (TCP) transports arm a retransmission timeout for a packet's first
    transmission only, so a tail-dropped retransmission is never resent and its
    flow never completes.  Both simulators count such flows; header-preserving
    (NDP) transports never drop, so none of their flows is left unfinished."""

    @pytest.mark.parametrize("stack_name, unfinished",
                             [("ecmp", 2), ("fatpaths", 0), ("ndp", 0)])
    def test_fidelity_workload(self, topologies, stack_name, unfinished):
        """The ``fidelity`` scenario's FT3 workload at tiny scale and seed 0."""
        topo = topologies["FT3"]
        rng = topology_rng(0, "FT3")
        workload = uniform_size_workload(
            random_permutation(topo.num_endpoints, rng).subsample(0.2, rng), 96 * 1024)
        reference, engine = run_both(topo, stack_name, workload)
        assert_equivalent(reference, engine)
        assert engine.meta["unfinished_flows"] == unfinished


class TestDispatch:
    def test_default_engine_is_vectorized(self, topologies, workloads):
        """simulate_packets() runs the PacketEngine and matches a reference run."""
        topo = topologies["SF"]
        workload = workloads["SF"]["uniform"]
        stack = build_stack(topo, "ecmp", seed=0)
        default = simulate_packets(topo, stack.routing, workload,
                                   selector=stack.selector,
                                   transport=stack.transport, seed=0)
        stack2 = build_stack(topo, "ecmp", seed=0)
        reference = PacketLevelSimulator(topo, stack2.routing, selector=stack2.selector,
                                         transport=stack2.transport, seed=0).run(workload)
        assert_equivalent(reference, default)
