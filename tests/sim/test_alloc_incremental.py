"""Property suite: refiltering-vs-full allocator agreement (`repro.sim.allocstate`).

A refiltering allocator (``"incremental"``, and ``"bottleneck"`` from
:mod:`repro.sim.bottleneck`) must be *max-min exact*: on any event sequence
(arrivals, completions, path switches — including component merges and splits) its
cached rates must agree with a full progressive fill over the same incidence to
tight tolerance, saturate exactly the same links, and carry the classical
bottleneck certificate.  Trajectory-level behaviour is additionally pinned end to
end against ``allocator="full"`` on the engine (static-selector stack, where both
allocators walk identical trajectories).  Bottleneck-structure-specific coverage
lives in ``tests/sim/test_alloc_bottleneck.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.simcommon import build_stack
from repro.sim.allocstate import (
    ALLOCATORS,
    AllocationState,
    FullAllocator,
    IncrementalAllocator,
    _compress_links,
    make_allocator,
)
from repro.sim.bottleneck import BottleneckAllocator
from repro.sim.fairshare import (
    bottleneck_certificate,
    incidence_components,
    leveled_fill,
    max_min_fair_rates,
)
from repro.sim.flowsim import FlowSimConfig, simulate_workload
from repro.topologies import comparable_configurations
from repro.topologies.configs import SizeClass
from repro.traffic.flows import poisson_workload
from repro.traffic.patterns import incast_pattern, random_permutation


def _pooled_fill(entry_links, entry_flows, num_flows, caps):
    """Per-flow rates of the allocators' pooled fill over one entry set."""
    touched, compressed = _compress_links(entry_links, caps.shape[0])
    return leveled_fill(entry_flows, num_flows, caps[touched], compressed, touched.size)[0]


# --------------------------------------------------------------- synthetic driver
#: Challenger allocators the lockstep driver can pit against :class:`FullAllocator`.
CHALLENGERS = {"incremental": IncrementalAllocator, "bottleneck": BottleneckAllocator}


class SyntheticFlows:
    """Random flows over a synthetic link space, driven through both allocators.

    Every flow has a fixed (inject, eject) link pair and a few candidate middle
    link lists (mirroring the engine's candidate bank); ``add``/``remove``/``switch``
    apply the same operation to a :class:`FullAllocator` and the chosen
    ``challenger`` allocator so their post-event state can be compared.  The
    challenger instance is kept under the historical ``incremental`` attribute
    (with rates in ``rates_inc``) so existing edge-case tests read naturally.
    """

    def __init__(self, rng, num_links=36, num_flows=40, max_mids=4, candidates=3,
                 challenger="incremental"):
        self.rng = rng
        self.num_links = num_links
        self.capacities = rng.uniform(1.0, 10.0, size=num_links)
        self.line_rate = float(self.capacities.max())
        self.flows = []
        mid_pool = []
        for _ in range(num_flows):
            inj, ej = rng.choice(num_links, size=2, replace=False)
            cands = []
            for _ in range(candidates):
                k = int(rng.integers(0, max_mids + 1))
                mids = list(rng.choice(num_links, size=k, replace=False))
                cands.append((len(mid_pool), k))
                mid_pool.extend(mids)
            self.flows.append((int(inj), int(ej), cands))
        self.mid_pool = np.asarray(mid_pool, dtype=np.int64)
        self.full = FullAllocator(AllocationState(num_flows, num_links),
                                  self.capacities, self.line_rate)
        self.incremental = CHALLENGERS[challenger](
            AllocationState(num_flows, num_links), self.capacities, self.line_rate)
        self.rates_full = np.zeros(num_flows)
        self.rates_inc = np.zeros(num_flows)
        self.active = []
        self.current = {}

    def _full_links(self, slot, cand):
        inj, ej, cands = self.flows[slot]
        start, k = cands[cand]
        return np.concatenate([[inj], self.mid_pool[start:start + k], [ej]])

    def add(self, slot, cand=0):
        inj, ej, cands = self.flows[slot]
        capacity = max(k for _, k in cands) + 2
        links = self._full_links(slot, cand)
        for alloc in (self.full, self.incremental):
            alloc.add(slot, links, capacity)
        self.active.append(slot)
        self.current[slot] = cand

    def remove(self, slot):
        for alloc in (self.full, self.incremental):
            alloc.remove(slot)
        self.active.remove(slot)
        del self.current[slot]

    def switch(self, slot, cand):
        _, ej, cands = self.flows[slot]
        start, k = cands[cand]
        args = (np.asarray([slot]), np.asarray([ej]), self.mid_pool,
                np.asarray([start]), np.asarray([k]))
        for alloc in (self.full, self.incremental):
            alloc.switch(*args)
        self.current[slot] = cand

    def recompute(self):
        active = np.asarray(sorted(self.active), dtype=np.int64)
        if active.size == 0:
            self.full.idle()
            self.incremental.idle()
            return active
        self.full.recompute(active, self.rates_full)
        self.incremental.recompute(active, self.rates_inc)
        return active

    # ------------------------------------------------------------- invariants
    def check_agreement(self):
        """Rates agree tightly, saturation sets match, certificate holds."""
        active = np.asarray(sorted(self.active), dtype=np.int64)
        if active.size == 0:
            return
        np.testing.assert_allclose(self.rates_inc[active], self.rates_full[active],
                                   rtol=1e-9, atol=1e-9)
        links_f, slots_f = self.full.state.live_entries()
        links_i, slots_i = self.incremental.state.live_entries()
        loads_f = np.bincount(links_f, weights=self.rates_full[slots_f],
                              minlength=self.num_links)
        loads_i = np.bincount(links_i, weights=self.rates_inc[slots_i],
                              minlength=self.num_links)
        saturated_f = loads_f >= self.capacities * (1.0 - 1e-7)
        saturated_i = loads_i >= self.capacities * (1.0 - 1e-7)
        assert (saturated_f == saturated_i).all()
        assert bottleneck_certificate(links_i, slots_i, self.rates_inc,
                                      self.capacities, rtol=1e-7).size == 0
        # cross-check against the scipy reference allocator on the same paths
        paths = [list(self._full_links(s, self.current[s])) for s in active]
        reference = max_min_fair_rates(paths, self.capacities)
        np.minimum(reference, self.line_rate, out=reference)
        np.testing.assert_allclose(self.rates_inc[active], reference,
                                   rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("challenger", sorted(CHALLENGERS))
class TestRandomizedEventSequences:
    """The ISSUE's acceptance property: agreement on random event sequences."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_adds_removes_switches(self, challenger, seed):
        rng = np.random.default_rng(seed)
        sim = SyntheticFlows(rng, num_links=int(rng.integers(12, 48)),
                             num_flows=32, challenger=challenger)
        pending = list(range(32))
        rng.shuffle(pending)
        for _ in range(90):
            roll = rng.random()
            if pending and (roll < 0.45 or not sim.active):
                sim.add(pending.pop(), cand=int(rng.integers(0, 3)))
            elif sim.active and roll < 0.75:
                sim.switch(int(rng.choice(sim.active)), int(rng.integers(0, 3)))
            elif sim.active:
                sim.remove(int(rng.choice(sim.active)))
            sim.recompute()
            sim.check_agreement()

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_drain_to_empty_and_refill(self, challenger, seed):
        """Complete everything, then re-arrive: caches must reset cleanly."""
        rng = np.random.default_rng(seed)
        sim = SyntheticFlows(rng, num_flows=12, challenger=challenger)
        for slot in range(8):
            sim.add(slot)
            sim.recompute()
        for slot in list(sim.active):
            sim.remove(slot)
            sim.recompute()
        assert not sim.active
        assert np.all(sim.incremental.link_util == 0.0)
        for slot in range(8, 12):
            sim.add(slot)
            sim.recompute()
            sim.check_agreement()


class TestComponentEdgeCases:
    def _flows(self, specs, num_links=10):
        """A driver with hand-picked candidate link lists (one candidate each)."""
        rng = np.random.default_rng(0)
        sim = SyntheticFlows(rng, num_links=num_links, num_flows=len(specs))
        mid_pool = []
        flows = []
        for inj, mids, ej in specs:
            flows.append((inj, ej, [(len(mid_pool), len(mids))] * 3))
            mid_pool.extend(mids)
        sim.flows = flows
        sim.mid_pool = np.asarray(mid_pool, dtype=np.int64)
        return sim

    def test_single_flow_gets_minimum_capacity(self):
        sim = self._flows([(0, [1], 2)])
        sim.add(0)
        sim.recompute()
        sim.check_agreement()
        assert sim.rates_inc[0] == pytest.approx(sim.capacities[[0, 1, 2]].min())

    def test_saturated_shared_link(self):
        """Two flows through one shared link split it; a third is independent."""
        sim = self._flows([(0, [4], 1), (2, [4], 3), (5, [6], 7)])
        for slot in range(3):
            sim.add(slot)
            sim.recompute()
            sim.check_agreement()
        shared = sim.capacities[4]
        if shared <= 2 * min(sim.capacities[[0, 1, 2, 3]]):
            assert sim.rates_inc[0] + sim.rates_inc[1] == pytest.approx(shared)

    def test_component_merge_and_split(self):
        """A bridge flow merges two components; its completion splits them again."""
        sim = self._flows([(0, [], 1), (2, [], 3), (1, [], 2)])
        sim.add(0)
        sim.add(1)
        sim.recompute()
        sim.check_agreement()
        inc = sim.incremental
        assert inc._find(0) != inc._find(2)
        sim.add(2)                      # bridges links 1 and 2
        sim.recompute()
        sim.check_agreement()
        assert inc._find(0) == inc._find(2)
        sim.remove(2)                   # true components split again
        sim.recompute()
        sim.check_agreement()
        inc._rebuild(np.asarray(sorted(sim.active)), sim.rates_inc)
        assert inc._find(0) != inc._find(2)
        sim.check_agreement()

    def test_switch_moves_flow_between_components(self):
        sim = self._flows([(0, [1], 2), (3, [4], 5), (6, [4], 7)])
        for slot in range(3):
            sim.add(slot)
        sim.recompute()
        sim.check_agreement()
        # flow 0's second candidate shares link 4 with flows 1 and 2
        sim.flows[0] = (0, 2, [(0, 1), (len(sim.mid_pool), 1), (0, 1)])
        sim.mid_pool = np.concatenate([sim.mid_pool, [4]])
        sim.switch(0, 1)
        sim.recompute()
        sim.check_agreement()
        assert sim.incremental._find(0) == sim.incremental._find(4)

    def test_compaction_preserves_agreement(self):
        """Heavy arrival/completion churn drives pool compaction."""
        rng = np.random.default_rng(7)
        sim = SyntheticFlows(rng, num_links=20, num_flows=36, max_mids=6)
        for slot in range(24):
            sim.add(slot)
        sim.recompute()
        for slot in range(20):
            sim.remove(slot)
            sim.recompute()
            sim.check_agreement()
        used_before = sim.full.state.used
        for slot in range(24, 36):
            sim.add(slot)
            sim.recompute()
            sim.check_agreement()
        assert sim.full.state.used <= max(used_before, 256 * 2)


# -------------------------------------------------------------- fairshare helpers
class TestFairshareHelpers:
    def test_incidence_components_basic(self):
        links = np.array([0, 1, 1, 2, 5, 6])
        flows = np.array([0, 0, 1, 1, 2, 2])
        ncomp, touched, link_labels, flow_ids, flow_labels = \
            incidence_components(links, flows)
        assert ncomp == 2
        assert list(touched) == [0, 1, 2, 5, 6]
        assert flow_labels[0] == flow_labels[1] != flow_labels[2]
        assert link_labels[0] == link_labels[1] == link_labels[2]

    def test_incidence_components_empty(self):
        ncomp, touched, _, flow_ids, _ = incidence_components(np.empty(0), np.empty(0))
        assert ncomp == 0 and touched.size == 0 and flow_ids.size == 0

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_components_partition_max_min(self, seed):
        """Per-component fills equal the global fill (the decomposition theorem)."""
        rng = np.random.default_rng(seed)
        num_links, num_flows = 14, 10
        caps = rng.uniform(1.0, 8.0, size=num_links)
        paths = [list(rng.choice(num_links, size=int(rng.integers(1, 4)),
                                 replace=False)) for _ in range(num_flows)]
        entry_links = np.concatenate([np.asarray(p) for p in paths])
        entry_flows = np.repeat(np.arange(num_flows),
                                [len(p) for p in paths])
        global_rates = _pooled_fill(entry_links, entry_flows, num_flows, caps)
        ncomp, _, _, flow_ids, flow_labels = incidence_components(entry_links,
                                                                  entry_flows)
        label_of = dict(zip(flow_ids.tolist(), flow_labels.tolist()))
        for comp in range(ncomp):
            members = [f for f in range(num_flows) if label_of[f] == comp]
            sub_links = np.concatenate([np.asarray(paths[f]) for f in members])
            sub_flows = np.repeat(np.arange(len(members)),
                                  [len(paths[f]) for f in members])
            local = _pooled_fill(sub_links, sub_flows, len(members), caps)
            np.testing.assert_allclose(local, global_rates[members], rtol=1e-9)

    def test_bottleneck_certificate_accepts_max_min(self):
        rng = np.random.default_rng(3)
        caps = rng.uniform(1.0, 8.0, size=8)
        paths = [list(rng.choice(8, size=2, replace=False)) for _ in range(6)]
        rates = max_min_fair_rates(paths, caps)
        links = np.concatenate([np.asarray(p) for p in paths])
        flows = np.repeat(np.arange(6), [len(p) for p in paths])
        assert bottleneck_certificate(links, flows, rates, caps).size == 0

    def test_bottleneck_certificate_rejects_suboptimal(self):
        # halving every rate keeps feasibility but starves every flow
        rng = np.random.default_rng(4)
        caps = rng.uniform(2.0, 8.0, size=8)
        paths = [list(rng.choice(8, size=2, replace=False)) for _ in range(6)]
        rates = max_min_fair_rates(paths, caps) * 0.5
        links = np.concatenate([np.asarray(p) for p in paths])
        flows = np.repeat(np.arange(6), [len(p) for p in paths])
        assert bottleneck_certificate(links, flows, rates, caps).size == 6

    def test_bottleneck_certificate_rejects_overload(self):
        links = np.array([0, 0])
        flows = np.array([0, 1])
        caps = np.array([1.0])
        rates = np.array([1.0, 1.0])   # 2x the link capacity
        assert bottleneck_certificate(links, flows, rates, caps).size == 2


# ------------------------------------------------------------------ engine level
class TestEngineIncremental:
    @pytest.fixture(scope="class")
    def topo(self):
        return comparable_configurations(SizeClass.TINY, topologies=["SF"],
                                         seed=0)["SF"]

    def _run(self, topo, workload, allocator, stack_name="ecmp"):
        stack = build_stack(topo, stack_name, seed=0)
        return simulate_workload(topo, stack.routing, workload,
                                 selector=stack.selector, transport=stack.transport,
                                 config=FlowSimConfig(allocator=allocator), seed=0)

    def test_staggered_incast_matches_full(self, topo):
        """Static-selector trajectories are identical, so records pin tightly."""
        rng = np.random.default_rng(0)
        pattern = incast_pattern(topo.num_endpoints, num_hotspots=4, fanin=8,
                                 rng=rng, disjoint_senders=True)
        workload = poisson_workload(pattern, 400.0, 0.01,
                                    rng=np.random.default_rng(1),
                                    fixed_size=128 * 1024)
        full = self._run(topo, workload, "full")
        inc = self._run(topo, workload, "incremental")
        assert full.meta["allocator"] == "full"
        assert inc.meta["allocator"] == "incremental"
        assert len(full) == len(inc)
        for f, i in zip(full.records, inc.records):
            assert f.flow_id == i.flow_id
            assert i.completion_time == pytest.approx(f.completion_time, rel=1e-6)

    def test_permutation_workload_matches_full(self, topo):
        rng = np.random.default_rng(2)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.3, rng)
        workload = poisson_workload(pattern, 300.0, 0.01,
                                    rng=np.random.default_rng(3))
        full = self._run(topo, workload, "full")
        inc = self._run(topo, workload, "incremental")
        for f, i in zip(full.records, inc.records):
            assert i.completion_time == pytest.approx(f.completion_time, rel=1e-6)

    def test_adaptive_stack_aggregates_agree(self, topo):
        """With adaptive switching, trajectories may diverge by ulps — aggregate
        FCT statistics must still agree closely."""
        rng = np.random.default_rng(4)
        pattern = incast_pattern(topo.num_endpoints, num_hotspots=4, fanin=8,
                                 rng=rng, disjoint_senders=True)
        workload = poisson_workload(pattern, 400.0, 0.01,
                                    rng=np.random.default_rng(5),
                                    fixed_size=128 * 1024)
        full = self._run(topo, workload, "full", stack_name="fatpaths")
        inc = self._run(topo, workload, "incremental", stack_name="fatpaths")
        fct_full = np.array([r.completion_time - r.start_time
                             for r in full.records])
        fct_inc = np.array([r.completion_time - r.start_time
                            for r in inc.records])
        assert fct_inc.mean() == pytest.approx(fct_full.mean(), rel=1e-2)
        assert np.median(fct_inc) == pytest.approx(np.median(fct_full), rel=1e-2)


# ------------------------------------------------------------------- dispatching
class TestAllocatorDispatch:
    def test_config_validates_allocator(self):
        assert FlowSimConfig().allocator == "full"
        assert FlowSimConfig(allocator="incremental").allocator == "incremental"
        with pytest.raises(ValueError):
            FlowSimConfig(allocator="magic")

    def test_allocators_registry(self):
        assert ALLOCATORS == ("full", "incremental", "bottleneck")
        with pytest.raises(ValueError):
            make_allocator("magic", 4, 4, np.ones(4), 1.0)

    def test_make_allocator_dispatches(self):
        for name, cls in [("full", FullAllocator),
                          ("incremental", IncrementalAllocator),
                          ("bottleneck", BottleneckAllocator)]:
            alloc = make_allocator(name, 4, 4, np.ones(4), 1.0)
            assert isinstance(alloc, cls) and alloc.name == name

    @pytest.mark.parametrize("allocator", ["incremental", "bottleneck"])
    def test_reference_rejects_refiltering(self, allocator):
        from repro.sim.reference import FlowLevelSimulator

        topo = comparable_configurations(SizeClass.TINY, topologies=["SF"],
                                         seed=0)["SF"]
        stack = build_stack(topo, "ecmp", seed=0)
        with pytest.raises(ValueError, match="reference"):
            FlowLevelSimulator(topo, stack.routing,
                               config=FlowSimConfig(allocator=allocator))
