"""Tests for max-min fair bandwidth allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.allocstate import _compress_links
from repro.sim.fairshare import leveled_fill, max_min_fair_rates


def utilisation_of(paths, rates, caps):
    """Load over capacity of every link, accumulated flow by flow."""
    load = np.zeros(len(caps))
    for links, rate in zip(paths, rates):
        for link in links:
            load[link] += rate
    return load / caps


class TestMaxMinFair:
    def test_single_flow_gets_full_capacity(self):
        rates = max_min_fair_rates([[0]], np.array([10.0]))
        assert rates[0] == pytest.approx(10.0)

    def test_two_flows_share_a_link(self):
        rates = max_min_fair_rates([[0], [0]], np.array([10.0]))
        assert np.allclose(rates, [5.0, 5.0])

    def test_classic_three_flow_example(self):
        # flows: A uses links 0 and 1, B uses link 0, C uses link 1; capacities 10 each
        # max-min: A=5, B=5, C=5 (A limited by either link; B/C take the rest)
        rates = max_min_fair_rates([[0, 1], [0], [1]], np.array([10.0, 10.0]))
        assert np.allclose(rates, [5.0, 5.0, 5.0])

    def test_bottleneck_hierarchy(self):
        # link 0 cap 2 shared by flows A,B; link 1 cap 10 used by B and C.
        # A=1, B=1 (bottleneck link 0), C = 9 (takes the rest of link 1)
        rates = max_min_fair_rates([[0], [0, 1], [1]], np.array([2.0, 10.0]))
        assert np.allclose(rates, [1.0, 1.0, 9.0])

    def test_empty_path_gets_infinite_rate(self):
        rates = max_min_fair_rates([[], [0]], np.array([4.0]))
        assert np.isinf(rates[0])
        assert rates[1] == pytest.approx(4.0)

    def test_no_flows(self):
        assert max_min_fair_rates([], np.array([1.0])).shape == (0,)

    def test_invalid_link_index(self):
        with pytest.raises(ValueError):
            max_min_fair_rates([[5]], np.array([1.0]))

    def test_utilisation(self):
        paths = [[0, 1], [0]]
        rates = max_min_fair_rates(paths, np.array([10.0, 10.0]))
        util = utilisation_of(paths, rates, np.array([10.0, 10.0]))
        assert util[0] == pytest.approx(1.0)
        assert util[1] <= 1.0 + 1e-9

    @given(num_flows=st.integers(1, 20), num_links=st.integers(1, 10),
           seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_property_feasibility_and_nonnegativity(self, num_flows, num_links, seed):
        """Allocations never exceed any link capacity and are non-negative; every flow
        gets a strictly positive rate."""
        rng = np.random.default_rng(seed)
        caps = rng.uniform(1.0, 10.0, size=num_links)
        paths = []
        for _ in range(num_flows):
            length = int(rng.integers(1, min(4, num_links) + 1))
            paths.append(list(rng.choice(num_links, size=length, replace=False)))
        rates = max_min_fair_rates(paths, caps)
        assert (rates > 0).all()
        util = utilisation_of(paths, rates, caps)
        assert (util <= 1.0 + 1e-6).all()

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_property_maxmin_dominance(self, seed):
        """No flow can be cheaply improved: every flow either saturates a link or runs
        at the max observed rate (a necessary condition of max-min fairness)."""
        rng = np.random.default_rng(seed)
        num_links = 6
        caps = rng.uniform(2.0, 8.0, size=num_links)
        paths = [list(rng.choice(num_links, size=int(rng.integers(1, 4)), replace=False))
                 for _ in range(8)]
        rates = max_min_fair_rates(paths, caps)
        util = utilisation_of(paths, rates, caps)
        for f, links in enumerate(paths):
            on_saturated = any(util[l] >= 1.0 - 1e-6 for l in links)
            assert on_saturated or rates[f] >= rates.max() - 1e-6


def _random_flow_set(rng, num_links, num_flows):
    caps = rng.uniform(1.0, 10.0, size=num_links)
    paths = [list(rng.choice(num_links, size=int(rng.integers(1, min(4, num_links) + 1)),
                             replace=False))
             for _ in range(num_flows)]
    return caps, paths


class TestProgressiveFillingInvariants:
    """Property-based certificates of max-min fairness on random flow sets."""

    @given(num_flows=st.integers(1, 24), num_links=st.integers(1, 12),
           seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_no_link_over_capacity(self, num_flows, num_links, seed):
        caps, paths = _random_flow_set(np.random.default_rng(seed), num_links, num_flows)
        rates = max_min_fair_rates(paths, caps)
        util = utilisation_of(paths, rates, caps)
        assert (util <= 1.0 + 1e-6).all()

    @given(num_flows=st.integers(2, 20), num_links=st.integers(2, 10),
           seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_max_min_certificate(self, num_flows, num_links, seed):
        """The allocation is max-min: every flow has a *bottleneck* link — one that is
        saturated and on which the flow's rate is maximal.  Raising that flow would
        then necessarily lower another flow that is no faster (the classical
        certificate: no flow can be increased without decreasing a slower one)."""
        caps, paths = _random_flow_set(np.random.default_rng(seed), num_links, num_flows)
        rates = max_min_fair_rates(paths, caps)
        loads = np.zeros(num_links)
        link_max_rate = np.zeros(num_links)
        for f, links in enumerate(paths):
            for link in links:
                loads[link] += rates[f]
                link_max_rate[link] = max(link_max_rate[link], rates[f])
        saturated = loads >= caps * (1.0 - 1e-9) - 1e-9
        for f, links in enumerate(paths):
            has_bottleneck = any(saturated[link] and rates[f] >= link_max_rate[link] - 1e-9
                                 for link in links)
            assert has_bottleneck, f"flow {f} could be raised without hurting a slower flow"


class TestPooledFillMatchesReference:
    """The engine's pooled fill equals ``max_min_fair_rates`` bit for bit.

    Capacities are all equal or take two values, so many links saturate in the
    same round and a differently ordered float sum would show in the last ulp.
    A random subset of the flows is live, relabelled ``0..k-1`` in arrival order
    as the allocators do, and their entries come in a random order.  The links
    are compressed by marking, as the allocators do, or by ``np.unique``.
    """

    @given(num_flows=st.integers(1, 40), num_links=st.integers(1, 16),
           two_capacities=st.booleans(), live_share=st.floats(0.0, 1.0),
           by_unique=st.booleans(), seed=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, num_flows, num_links, two_capacities, live_share,
                           by_unique, seed):
        rng = np.random.default_rng(seed)
        values = [10.0, 25.0] if two_capacities else [10.0]
        caps = rng.choice(values, size=num_links)
        paths = [rng.choice(num_links, size=int(rng.integers(1, num_links + 1)),
                            replace=False).tolist() for _ in range(num_flows)]
        live = np.flatnonzero(rng.random(num_flows) < live_share)
        entries = [(link, i) for i, f in enumerate(live) for link in paths[f]]
        order = rng.permutation(len(entries))
        links = np.array([entries[i][0] for i in order], dtype=np.int64)
        flows = np.array([entries[i][1] for i in order], dtype=np.int64)
        touched, compressed = (np.unique(links, return_inverse=True) if by_unique
                               else _compress_links(links, num_links))
        got, _, _ = leveled_fill(flows, live.size, caps[touched], compressed,
                                 touched.size)
        expected = np.zeros(live.size)
        if live.size:
            expected = max_min_fair_rates([paths[f] for f in live], caps)
        assert np.array_equal(got, expected)
