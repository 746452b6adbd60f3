"""Engine/reference equivalence: the vectorized flow engine must reproduce the scalar
reference simulator *record for record* — flow ids, hops, path-switch and
congestion-episode counts exactly; completion times and throughputs to 1e-9 relative —
across every simcommon stack, multiple topologies, and the simulator's edge paths
(same-router flows, single-path flows, sprayed flows).  Both end every run on their
own, after one event per arrival instant, completion and applied fault epoch."""

import numpy as np
import pytest

from repro.core.loadbalance import EcmpSelector, FlowletSelector
from repro.experiments.simcommon import STACKS, build_stack
from repro.routing import EcmpRouting
from repro.sim.engine import FlowEngine, SimCell, simulate_many
from repro.sim.faults import FaultEvent, FaultSchedule, sample_link_faults
from repro.sim.flowsim import FlowSimConfig, simulate_workload
from repro.sim.reference import FlowLevelSimulator
from repro.sim.stream import StreamSimulator
from repro.topologies import comparable_configurations, configs, star
from repro.topologies.configs import SizeClass
from repro.traffic.flows import Flow, Workload, poisson_workload, uniform_size_workload
from repro.traffic.patterns import random_permutation


TOPOLOGY_NAMES = ("SF", "HX3")


def assert_equivalent(reference, engine):
    """Record-for-record comparison with the tolerances of the acceptance criteria."""
    assert len(reference) == len(engine)
    assert reference.meta["events"] == engine.meta["events"]
    for ref, eng in zip(reference.records, engine.records):
        assert ref.flow_id == eng.flow_id
        assert ref.source == eng.source
        assert ref.destination == eng.destination
        assert ref.size_bytes == eng.size_bytes
        assert ref.path_hops == eng.path_hops
        assert ref.num_path_switches == eng.num_path_switches
        assert ref.congestion_events == eng.congestion_events
        assert ref.start_time == eng.start_time
        assert eng.completion_time == pytest.approx(ref.completion_time, rel=1e-9)
        assert eng.throughput == pytest.approx(ref.throughput, rel=1e-9)


#: The scalar reference (the oracle) first, then the vectorized engine.
SIMULATORS = (FlowLevelSimulator, FlowEngine)


def run_both(topology, stack_name, workload, mapping=None, config=None, seed=0):
    """One workload under freshly built identical stacks on both implementations.

    Both runs must also leave their selectors' RNGs in the same state: under a
    light load a changed draw need not show in any record.
    """
    results, rng_states = [], []
    for sim_cls in SIMULATORS:
        stack = build_stack(topology, stack_name, seed=seed)
        sim = sim_cls(topology, stack.routing, selector=stack.selector,
                      transport=stack.transport, config=config, seed=seed)
        results.append(sim.run(workload, mapping=mapping))
        rng = getattr(stack.selector, "_rng", None)
        rng_states.append(None if rng is None else rng.bit_generator.state)
    assert rng_states[0] == rng_states[1]
    return results


@pytest.fixture(scope="module")
def topologies():
    return comparable_configurations(SizeClass.TINY, topologies=list(TOPOLOGY_NAMES), seed=0)


@pytest.fixture(scope="module")
def workloads(topologies):
    out = {}
    for name, topo in topologies.items():
        rng = np.random.default_rng(0)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.3, rng)
        out[name] = {
            "uniform": uniform_size_workload(pattern, 512 * 1024),
            "poisson": poisson_workload(pattern, 300.0, 0.01, rng=np.random.default_rng(2)),
        }
    return out


class TestAllStacks:
    """The acceptance grid: every simcommon stack on at least two topologies."""

    @pytest.mark.parametrize("stack_name", STACKS)
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    def test_uniform_workload(self, topologies, workloads, topo_name, stack_name):
        reference, engine = run_both(topologies[topo_name], stack_name,
                                     workloads[topo_name]["uniform"])
        assert_equivalent(reference, engine)

    @pytest.mark.parametrize("stack_name", ["fatpaths", "ndp", "ecmp"])
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    def test_poisson_arrivals(self, topologies, workloads, topo_name, stack_name):
        reference, engine = run_both(topologies[topo_name], stack_name,
                                     workloads[topo_name]["poisson"])
        assert_equivalent(reference, engine)

    def test_with_random_mapping(self, topologies, workloads):
        topo = topologies["SF"]
        mapping = np.random.default_rng(5).permutation(topo.num_endpoints)
        reference, engine = run_both(topo, "fatpaths", workloads["SF"]["uniform"],
                                     mapping=mapping)
        assert_equivalent(reference, engine)


class TestRunsEnd:
    """A flow run ends on its own: each event admits one arrival instant,
    completes one flow or applies one fault epoch, so the input fixes the event
    count (a fault epoch after the last completion is not an event)."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["static", "faulted"])
    @pytest.mark.parametrize("kind", ["uniform", "poisson"])
    @pytest.mark.parametrize("stack_name", STACKS)
    def test_event_count(self, topologies, workloads, stack_name, kind, faulted):
        topo = topologies["SF"]
        workload = workloads["SF"][kind]
        faults = sample_link_faults(topo, 0.1, 0.0004, 0.0012,
                                    np.random.default_rng(11)) if faulted else None
        instants = len({flow.start_time for flow in workload})
        for result in run_both(topo, stack_name, workload,
                               config=FlowSimConfig(faults=faults)):
            assert result.meta["events"] == (instants + len(workload)
                                             + result.meta.get("fault_events", 0))
            assert result.meta.get("fault_events", 0) >= faulted


class TestEdgePaths:
    def test_same_router_flows(self, topologies):
        """Endpoints on one router take the synthetic single-hop candidate."""
        topo = topologies["SF"]
        workload = Workload([Flow(0.0, 0, 1, 1e6), Flow(0.0, 2, 40, 2e6)])
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
            256 * 1024)
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
            random_permutation(topo.num_endpoints, np.random.default_rng(3)), 128 * 1024)
        reference, engine = run_both(topo, "ndp", workload)
        assert_equivalent(reference, engine)

    def test_ecmp_selector_static_paths(self, topologies):
        """Hash-based selector: no RNG at all, still pinned."""
        topo = topologies["HX3"]
        workload = uniform_size_workload(
            random_permutation(topo.num_endpoints,
                               np.random.default_rng(7)).subsample(0.3,
                                                                   np.random.default_rng(8)),
            1024 * 1024)
        results = []
        for sim_cls in SIMULATORS:
            routing = EcmpRouting(topo, max_paths=8, seed=0)
            sim = sim_cls(topo, routing, selector=EcmpSelector(seed=0), seed=0)
            results.append(sim.run(workload))
        assert_equivalent(*results)


class TestSimulateMany:
    def test_batch_equals_sequential_runs(self, topologies, workloads):
        """simulate_many cells reproduce the equivalent sequence of single runs,
        including selector RNG state shared across cells of one stack."""
        topo = topologies["SF"]
        workload_a = workloads["SF"]["uniform"]
        workload_b = workloads["SF"]["poisson"]

        stack = build_stack(topo, "fatpaths", seed=0)
        sequential = [simulate_workload(topo, stack.routing, wl, selector=stack.selector,
                                        transport=stack.transport, seed=0)
                      for wl in (workload_a, workload_b)]

        stack2 = build_stack(topo, "fatpaths", seed=0)
        cells = [SimCell(topology=topo, routing=stack2.routing, workload=wl,
                         selector=stack2.selector, transport=stack2.transport, seed=0)
                 for wl in (workload_a, workload_b)]
        batched = simulate_many(cells)
        for seq, bat in zip(sequential, batched):
            assert_equivalent(seq, bat)

    def test_one_bank_per_routing_and_link_space(self, topologies):
        """Every engine over one routing shares its candidate bank, so a router
        pair is resolved once per routing; another routing gets its own bank."""
        from repro.sim.engine import candidate_bank_for, link_space_for

        topo = topologies["SF"]
        links = link_space_for(topo)
        routing, other = (build_stack(topo, "fatpaths", seed=s).routing for s in (0, 1))
        bank = candidate_bank_for(routing, links)
        assert candidate_bank_for(routing, links) is bank
        assert FlowEngine(topo, routing).bank is bank
        assert candidate_bank_for(other, links) is not bank


class TestFaultedRuns:
    """The equivalence grid extended to fault schedules: link outages, switch
    outages (forcing stalls and revivals) and never-restored failures must keep
    the engine record-for-record identical to the scalar reference, including
    the fault meta counters."""

    @staticmethod
    def _fault_meta_equal(reference, engine):
        for key in ("fault_events", "reroutes", "stalls"):
            assert reference.meta[key] == engine.meta[key]

    def test_survivors_read_off_the_failed_mask(self, topologies):
        """A pair's surviving candidates are its router paths that cross no failed
        edge, read off the failed-link mask through the bank's link table.  The
        mask's two sentinel links never fail, so a same-router pair's empty
        candidate always survives, and a restore revives every candidate."""
        from repro.sim.engine import _FaultRuntime, candidate_bank_for, link_space_for

        topo = topologies["SF"]
        routing = build_stack(topo, "fatpaths", seed=0).routing
        links = link_space_for(topo)
        bank = candidate_bank_for(routing, links)
        rng = np.random.default_rng(6)
        pairs = [tuple(int(r) for r in rng.choice(topo.num_routers, 2, replace=False))
                 for _ in range(40)] + [(3, 3)]
        entries = {pair: bank.entry(routing, *pair) for pair in pairs}
        edges = sorted(tuple(sorted(e)) for e in topo.edges)
        failed = {edges[int(i)] for i in rng.choice(len(edges), len(edges) // 8,
                                                     replace=False)}
        faultrt = _FaultRuntime(topo, links, bank)
        faultrt.apply([("fail", edge) for edge in sorted(failed)])
        shrunk = 0
        for pair, entry in entries.items():
            paths = routing.router_paths(*pair) if pair[0] != pair[1] else [[pair[0]]]
            expected = [i for i, path in enumerate(paths)
                        if not any(tuple(sorted(hop)) in failed
                                   for hop in zip(path, path[1:]))]
            assert faultrt.survivors(entry).tolist() == expected
            shrunk += len(expected) < entry.num_candidates
        assert 0 < shrunk < len(pairs)
        faultrt.apply([("restore", edge) for edge in sorted(failed)])
        for entry in entries.values():
            assert faultrt.survivors(entry).tolist() == list(range(entry.num_candidates))

    @pytest.mark.parametrize("stack_name", STACKS)
    @pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
    def test_link_outage_with_restore(self, topologies, workloads, topo_name,
                                      stack_name):
        """A sampled fraction of links fails mid-transfer and is restored later."""
        topo = topologies[topo_name]
        schedule = sample_link_faults(topo, 0.1, 0.0004, 0.0012,
                                      np.random.default_rng(11))
        config = FlowSimConfig(faults=schedule)
        reference, engine = run_both(topo, stack_name,
                                     workloads[topo_name]["uniform"], config=config)
        assert_equivalent(reference, engine)
        self._fault_meta_equal(reference, engine)
        # at least the fail epoch fires; the restore may land after the last
        # completion, in which case neither implementation processes it
        assert reference.meta["fault_events"] >= 1

    @pytest.mark.parametrize("stack_name", ["fatpaths", "ndp", "ecmp", "letflow"])
    def test_switch_outage_forces_stalls(self, topologies, stack_name):
        """Killing a whole switch mid-run disconnects some pairs entirely: flows
        stall (rate zero, out of the allocation) and revive on restore."""
        topo = topologies["SF"]
        rng = np.random.default_rng(4)
        workload = uniform_size_workload(
            random_permutation(topo.num_endpoints, rng).subsample(0.5, rng),
            512 * 1024)
        dur = 512 * 1024 / (10e9 / 8) * 4
        config = FlowSimConfig(
            faults=FaultSchedule.switch_outage([0], 0.3 * dur, 0.6 * dur))
        reference, engine = run_both(topo, stack_name, workload, config=config)
        assert_equivalent(reference, engine)
        self._fault_meta_equal(reference, engine)
        assert reference.meta["stalls"] > 0

    @pytest.mark.parametrize("stack_name", ["fatpaths", "ndp", "ecmp", "letflow"])
    def test_arrivals_during_switch_outage(self, stack_name):
        """Poisson arrivals across a switch outage: every flow that arrives while
        its pair is cut off stalls on arrival without a selector draw, and the
        rest arrive on surviving candidates or detours."""
        topo = configs.build("SF", "tiny")
        rng = np.random.default_rng(5)
        workload = poisson_workload(random_permutation(200, rng), 2000.0, 0.002, rng=rng)
        config = FlowSimConfig(faults=FaultSchedule.switch_outage(
            [topo.endpoint_routers[0]], 0.0005, 0.0012))
        reference, engine = run_both(topo, stack_name, workload, config=config)
        assert_equivalent(reference, engine)
        self._fault_meta_equal(reference, engine)
        assert len(workload) == 818
        assert reference.meta["stalls"] == 15

    def test_no_restore_drains_identically(self, topologies, workloads):
        """Failures that never heal: displaced flows finish on detours (or, stalled
        for good, at the ``rate_epsilon`` floor) the same way in both
        implementations."""
        topo = topologies["HX3"]
        schedule = FaultSchedule.switch_outage([1], 0.0003)
        config = FlowSimConfig(faults=schedule)
        reference, engine = run_both(topo, "fatpaths", workloads["HX3"]["uniform"],
                                     config=config)
        assert_equivalent(reference, engine)
        self._fault_meta_equal(reference, engine)

    def test_zero_impact_schedule_matches_unfaulted(self, topologies, workloads):
        """A schedule whose outage window opens after the last completion leaves
        every record identical to the never-faulted run (RNG-stream parity)."""
        topo = topologies["SF"]
        schedule = FaultSchedule.link_outage([(0, 1)], 10.0, 20.0)
        plain_ref, plain_eng = run_both(topo, "fatpaths",
                                        workloads["SF"]["uniform"])
        fault_ref, fault_eng = run_both(topo, "fatpaths",
                                        workloads["SF"]["uniform"],
                                        config=FlowSimConfig(faults=schedule))
        assert_equivalent(plain_ref, fault_eng)
        assert_equivalent(fault_ref, plain_eng)
        assert fault_ref.meta["reroutes"] == 0
        assert fault_ref.meta["stalls"] == 0

    @pytest.mark.parametrize("stack_name", STACKS)
    def test_staggered_epochs(self, topologies, stack_name):
        """Overlapping outages: link set A fails, set B fails while A is still
        down, A is restored, a switch outage overlaps B, then everything is
        restored.  Survivor views must follow every change of the failed set,
        including the changes that leave links failed."""
        topo = topologies["SF"]
        rng = np.random.default_rng(8)
        workload = poisson_workload(random_permutation(topo.num_endpoints, rng),
                                    1000.0, 0.002, rng=rng)
        picked = np.random.default_rng(21).choice(topo.num_edges, size=28, replace=False)
        set_a, set_b = ([topo.edges[int(i)] for i in half] for half in np.split(picked, 2))
        switch = 38
        t = [0.0003 * k for k in range(1, 7)]
        schedule = FaultSchedule(events=(
            *(FaultEvent(t[0], "fail", link=e) for e in set_a),
            *(FaultEvent(t[1], "fail", link=e) for e in set_b),
            *(FaultEvent(t[2], "restore", link=e) for e in set_a),
            FaultEvent(t[3], "fail", switch=switch),
            *(FaultEvent(t[4], "restore", link=e) for e in set_b),
            FaultEvent(t[5], "restore", switch=switch)))
        reference, engine = run_both(topo, stack_name, workload,
                                     config=FlowSimConfig(faults=schedule))
        assert_equivalent(reference, engine)
        self._fault_meta_equal(reference, engine)
        assert reference.meta["fault_events"] == 6
        assert reference.meta["reroutes"] > 0 and reference.meta["stalls"] > 0

    def test_incremental_allocator_under_faults(self, topologies, workloads):
        """The dirty-component allocator survives fault-driven removals/revivals
        and still matches the scalar reference."""
        topo = topologies["SF"]
        schedule = sample_link_faults(topo, 0.1, 0.0004, 0.0012,
                                      np.random.default_rng(11))
        stack = build_stack(topo, "fatpaths", seed=0)
        reference = FlowLevelSimulator(
            topo, stack.routing, selector=stack.selector, transport=stack.transport,
            config=FlowSimConfig(faults=schedule), seed=0).run(workloads["SF"]["uniform"])
        stack2 = build_stack(topo, "fatpaths", seed=0)
        engine = simulate_workload(
            topo, stack2.routing, workloads["SF"]["uniform"],
            selector=stack2.selector, transport=stack2.transport,
            config=FlowSimConfig(faults=schedule, allocator="incremental"), seed=0)
        assert_equivalent(reference, engine)
        self._fault_meta_equal(reference, engine)


class TestBadMappings:
    """An endpoint mapping that is not a permutation of the endpoints fails with a
    one-line error in the reference, the engine and the stream service alike."""

    BAD = {"short": list(range(10)), "duplicate": [0] * 200,
           "non_integer": [0.5] + list(range(1, 200)),
           "out_of_range": list(range(1, 201)), "scalar": 5,
           "unorderable": [None] + list(range(1, 200))}

    @staticmethod
    def _run(kind, mapping):
        topo = configs.build("SF", "tiny")
        stack = build_stack(topo, "fatpaths", seed=0)
        if kind == "stream":
            StreamSimulator(topo, stack.routing, selector=stack.selector,
                            transport=stack.transport, mapping=mapping)
            return
        sim_cls = FlowLevelSimulator if kind == "reference" else FlowEngine
        sim = sim_cls(topo, stack.routing, selector=stack.selector,
                      transport=stack.transport)
        sim.run(Workload([Flow(0.0, 0, 50, 1e5), Flow(0.0, 4, 54, 1e5)]),
                mapping=mapping)

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("kind", ["reference", "engine", "stream"])
    def test_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="permutation of the 200 endpoints"):
            self._run(kind, self.BAD[bad])

    @pytest.mark.parametrize("kind", ["reference", "engine", "stream"])
    def test_permutation_accepted(self, kind):
        self._run(kind, np.random.default_rng(0).permutation(200))
