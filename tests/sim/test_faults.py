"""Unit tests for the fault-schedule machinery: event validation, epoch
resolution, deterministic sampling, the scalar BFS/detour spec, and the
simulator-level fault invariants (zero-impact schedules leave records identical;
idempotent fail/restore pairs are no-ops)."""

import numpy as np
import pytest

from repro.experiments.simcommon import build_stack
from repro.sim.faults import (
    FaultEvent,
    FaultSchedule,
    bfs_distances_subgraph,
    detour_router_path,
    sample_link_faults,
)
from repro.sim.engine import FlowEngine
from repro.sim.flowsim import FlowSimConfig
from repro.sim.reference import FlowLevelSimulator
from repro.topologies import comparable_configurations
from repro.topologies.configs import SizeClass
from repro.traffic.flows import uniform_size_workload
from repro.traffic.patterns import random_permutation


@pytest.fixture(scope="module")
def topo():
    return comparable_configurations(SizeClass.TINY, topologies=["SF"], seed=0)["SF"]


@pytest.fixture(scope="module")
def workload(topo):
    rng = np.random.default_rng(0)
    pattern = random_permutation(topo.num_endpoints, rng).subsample(0.3, rng)
    return uniform_size_workload(pattern, 512 * 1024)


class TestFaultEvent:
    def test_link_normalized_to_sorted_orientation(self):
        assert FaultEvent(time=0.0, link=(7, 2)).link == (2, 7)

    def test_rejects_negative_or_nonfinite_time(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, link=(0, 1))
        with pytest.raises(ValueError):
            FaultEvent(time=float("nan"), link=(0, 1))

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, action="explode", link=(0, 1))

    def test_rejects_self_loop_and_ambiguous_target(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, link=(3, 3))
        with pytest.raises(ValueError):
            FaultEvent(time=0.0)                       # neither link nor switch
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, link=(0, 1), switch=2)   # both


class TestFaultSchedule:
    def test_bool_and_type_check(self):
        assert not FaultSchedule()
        assert FaultSchedule.link_outage([(0, 1)], 0.1)
        with pytest.raises(TypeError):
            FaultSchedule(events=("not-an-event",))

    def test_outage_constructors_validate_window(self):
        with pytest.raises(ValueError):
            FaultSchedule.link_outage([(0, 1)], 0.2, restore_time=0.1)
        with pytest.raises(ValueError):
            FaultSchedule.switch_outage([0], 0.2, restore_time=0.2)

    def test_resolve_groups_same_time_events(self, topo):
        e1, e2 = topo.edges[0], topo.edges[1]
        schedule = FaultSchedule.link_outage([e1, e2], 0.1, restore_time=0.2)
        epochs = schedule.resolve(topo)
        assert [t for t, _ in epochs] == [0.1, 0.2]
        assert epochs[0][1] == (("fail", e1), ("fail", e2))
        assert epochs[1][1] == (("restore", e1), ("restore", e2))

    def test_resolve_sorts_out_of_order_events(self, topo):
        edge = topo.edges[0]
        schedule = FaultSchedule(events=(
            FaultEvent(time=0.3, action="restore", link=edge),
            FaultEvent(time=0.1, action="fail", link=edge)))
        assert [t for t, _ in schedule.resolve(topo)] == [0.1, 0.3]

    def test_resolve_expands_switch_to_sorted_incident_edges(self, topo):
        epochs = FaultSchedule.switch_outage([0], 0.1).resolve(topo)
        (_, deltas), = epochs
        edges = [e for _, e in deltas]
        assert edges == sorted(e for e in topo.edges if 0 in e)
        assert all(action == "fail" for action, _ in deltas)

    def test_resolve_rejects_unknown_link_and_switch(self, topo):
        bogus = FaultSchedule.link_outage([(0, topo.num_routers + 5)], 0.1)
        with pytest.raises(ValueError):
            bogus.resolve(topo)
        with pytest.raises(ValueError):
            FaultSchedule.switch_outage([topo.num_routers], 0.1).resolve(topo)


class TestSampleLinkFaults:
    def test_deterministic_given_rng_and_at_least_one_link(self, topo):
        a = sample_link_faults(topo, 0.001, 0.1, 0.2, np.random.default_rng(3))
        b = sample_link_faults(topo, 0.001, 0.1, 0.2, np.random.default_rng(3))
        assert a == b
        assert len(a.events) == 2          # one fail + one restore

    def test_fraction_scales_sample(self, topo):
        schedule = sample_link_faults(topo, 0.25, 0.1, None,
                                      np.random.default_rng(3))
        assert len(schedule.events) == round(0.25 * topo.num_edges)
        assert len({e.link for e in schedule.events}) == len(schedule.events)

    def test_rejects_bad_fraction(self, topo):
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sample_link_faults(topo, fraction, 0.1, None,
                                   np.random.default_rng(0))


class TestDetourSpec:
    """The scalar BFS/backwalk helpers that pin the detour semantics."""

    ADJ = [[1], [0, 2], [1, 3], [2]]       # a 4-node path graph 0-1-2-3

    def test_bfs_skips_failed_edges(self):
        dist = bfs_distances_subgraph(self.ADJ, {(1, 2)}, 0)
        assert dist[0] == 0 and dist[1] == 1
        assert dist[2] < 0 and dist[3] < 0   # unreachable past the cut

    def test_detour_follows_min_index_backwalk(self):
        adj = [[1, 2], [0, 3], [0, 3], [1, 2]]   # 4-cycle 0-1-3-2-0
        failed = {(0, 1)}
        dist = bfs_distances_subgraph(adj, failed, 0)
        assert detour_router_path(adj, failed, 0, 3, dist) == [0, 2, 3]

    def test_detour_same_router_and_disconnected(self):
        dist = bfs_distances_subgraph(self.ADJ, {(1, 2)}, 0)
        assert detour_router_path(self.ADJ, {(1, 2)}, 2, 2, dist) == [2]
        assert detour_router_path(self.ADJ, {(1, 2)}, 0, 3, dist) is None


class TestSimulatorFaultInvariants:
    @pytest.mark.parametrize("sim_cls", [FlowLevelSimulator, FlowEngine],
                             ids=["reference", "engine"])
    def test_empty_schedule_equals_no_schedule(self, topo, workload, sim_cls):
        """faults=FaultSchedule() (no events) is exactly the unfaulted run."""
        records = []
        for config in (None, FlowSimConfig(faults=FaultSchedule())):
            stack = build_stack(topo, "fatpaths", seed=0)
            sim = sim_cls(topo, stack.routing, selector=stack.selector,
                          transport=stack.transport, config=config, seed=0)
            records.append(sim.run(workload).records)
        assert records[0] == records[1]

    @pytest.mark.parametrize("sim_cls", [FlowLevelSimulator, FlowEngine],
                             ids=["reference", "engine"])
    def test_idempotent_fail_restore_is_noop(self, topo, workload, sim_cls):
        """Duplicate fail/restore deltas inside an epoch are no-ops: they join
        the existing epoch (same times), mutate the failed set identically, and
        leave every record untouched.  (Events at *new* times are not no-ops —
        every epoch is an event boundary with a path-switch scan.)"""
        edge = topo.edges[0]
        plain = FaultSchedule.link_outage([edge], 2e-4, restore_time=6e-4)
        noisy = FaultSchedule(events=plain.events + (
            FaultEvent(time=2e-4, action="fail", link=edge),      # already dead
            FaultEvent(time=6e-4, action="restore", link=edge)))  # double restore
        records = []
        for schedule in (plain, noisy):
            stack = build_stack(topo, "fatpaths", seed=0)
            sim = sim_cls(topo, stack.routing, selector=stack.selector,
                          transport=stack.transport,
                          config=FlowSimConfig(faults=schedule), seed=0)
            records.append(sim.run(workload).records)
        assert records[0] == records[1]

    def test_config_rejects_non_schedule(self):
        with pytest.raises(TypeError):
            FlowSimConfig(faults=[("fail", (0, 1))])
