"""Tests for load-balancing selectors, transport models and workload mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loadbalance import EcmpSelector, FlowletSelector, PacketSpraySelector
from repro.core.mapping import identity_mapping, is_valid_mapping, random_mapping
from repro.core.transport import dctcp_transport, ndp_transport, tcp_transport


class TestEcmpSelector:
    def test_deterministic_per_flow(self):
        sel = EcmpSelector(seed=1)
        first = sel.initial_path(42, 8)
        assert all(sel.initial_path(42, 8) == first for _ in range(5))

    def test_never_rerutes(self):
        sel = EcmpSelector()
        assert sel.next_path(42, 3, 8) == 3

    def test_distributes_over_paths(self):
        sel = EcmpSelector(seed=0)
        picks = [sel.initial_path(f, 4) for f in range(400)]
        counts = np.bincount(picks, minlength=4)
        assert (counts > 50).all()

    def test_requires_a_path(self):
        with pytest.raises(ValueError):
            EcmpSelector().initial_path(1, 0)


class TestFlowletSelector:
    def test_repicks_paths(self):
        sel = FlowletSelector(seed=0, adaptive=False)
        picks = {sel.next_path(1, 0, 4) for _ in range(50)}
        assert len(picks) > 1

    def test_single_path_stays(self):
        sel = FlowletSelector(seed=0)
        assert sel.next_path(1, 0, 1) == 0

    def test_adaptive_avoids_congested(self):
        sel = FlowletSelector(seed=0, adaptive=True)
        congestion = lambda i: 10.0 if i == 0 else 0.1
        picks = [sel.next_path(1, 0, 3, congestion=congestion) for _ in range(60)]
        assert picks.count(0) == 0

    def test_adaptive_all_congested_falls_back_to_uniform(self):
        sel = FlowletSelector(seed=0, adaptive=True)
        congestion = lambda i: 5.0
        picks = {sel.next_path(1, 0, 3, congestion=congestion) for _ in range(60)}
        assert len(picks) == 3

    def test_initial_path_validation(self):
        with pytest.raises(ValueError):
            FlowletSelector().initial_path(1, 0)


class TestPacketSpray:
    def test_next_path_random(self):
        sel = PacketSpraySelector(seed=0)
        picks = {sel.next_path(1, 0, 6) for _ in range(100)}
        assert len(picks) > 3


class TestTransportModels:
    def test_ndp_line_rate_start(self):
        ndp = ndp_transport()
        assert ndp.line_rate_start
        assert ndp.startup_rtts(1e6, 1e5) == 1.0

    def test_tcp_slow_start_grows_with_flow_size(self):
        tcp = tcp_transport()
        small = tcp.startup_rtts(15_000, 1e6)
        large = tcp.startup_rtts(1e6, 1e7)
        assert large > small >= 1.0

    def test_tcp_congestion_penalty_larger_than_dctcp(self):
        assert tcp_transport().congestion_rtt_penalty > dctcp_transport().congestion_rtt_penalty

    def test_startup_delay_scales_with_rtt(self):
        tcp = tcp_transport()
        assert tcp.startup_delay(1e6, 20e-6, 10e9) < tcp.startup_delay(1e6, 200e-6, 10e9)

    def test_congestion_delay(self):
        ndp = ndp_transport()
        assert ndp.congestion_delay(2, 1e-4) == pytest.approx(2 * ndp.congestion_rtt_penalty * 1e-4)

    def test_invalid_flow_size(self):
        with pytest.raises(ValueError):
            ndp_transport().startup_rtts(0, 1e6)

    def test_dctcp_has_ecn(self):
        assert dctcp_transport().ecn
        assert not tcp_transport().ecn
        assert ndp_transport().header_preserving


class TestMapping:
    def test_identity(self):
        m = identity_mapping(10)
        assert list(m) == list(range(10))
        assert is_valid_mapping(m, 10)

    def test_random_is_permutation(self):
        m = random_mapping(100, np.random.default_rng(0))
        assert is_valid_mapping(m, 100)

    def test_random_deterministic_with_rng(self):
        a = random_mapping(50, np.random.default_rng(7))
        b = random_mapping(50, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_invalid_mapping_detected(self):
        assert not is_valid_mapping(np.array([0, 0, 1]), 3)
        assert not is_valid_mapping(np.array([0, 1]), 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            identity_mapping(0)
        with pytest.raises(ValueError):
            random_mapping(0)

    @given(n=st.integers(min_value=1, max_value=500), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_property_random_mapping_is_permutation(self, n, seed):
        assert is_valid_mapping(random_mapping(n, np.random.default_rng(seed)), n)


class TestBatchedSelectors:
    """next_path_batch must consume the selector RNG exactly as sequential calls do
    (the contract the vectorized simulation engine's equivalence rests on)."""

    #: Load ranges of the adaptive selector's branches at its 0.9 threshold:
    #: mixed rows, every row with an acceptable path, no row with one.
    MIXED, ALL_ACCEPTABLE, NONE_ACCEPTABLE = (0.0, 1.5), (0.0, 0.8), (0.95, 1.5)

    @staticmethod
    def _random_batch(rng, num_flows, max_paths=6, load_range=MIXED, pad=0):
        counts = rng.integers(2, max_paths + 1, size=num_flows)
        width = int(counts.max()) + pad
        loads = np.full((num_flows, width), np.inf)
        lengths = np.full((num_flows, width), np.inf)
        for row, n in enumerate(counts):
            loads[row, :n] = rng.uniform(*load_range, size=n)
            lengths[row, :n] = rng.integers(1, 5, size=n)
        flow_ids = rng.integers(0, 1000, size=num_flows)
        currents = np.array([int(rng.integers(0, n)) for n in counts])
        return flow_ids, currents, counts, loads, lengths

    def _assert_batch_matches_sequential(self, make_selector, seed_pool=range(6),
                                         num_flows=40, **shape):
        for case_seed in seed_pool:
            rng = np.random.default_rng(case_seed)
            flow_ids, currents, counts, loads, lengths = \
                self._random_batch(rng, num_flows, **shape)
            sequential_sel = make_selector()
            sequential = [sequential_sel.next_path(
                int(fid), int(cur), int(n),
                congestion=lambda i, row=row: float(loads[row, i]),
                path_lengths=lengths[row, :int(n)])
                for row, (fid, cur, n) in enumerate(zip(flow_ids, currents, counts))]
            batch_sel = make_selector()
            batch = batch_sel.next_path_batch(flow_ids, currents, counts, loads, lengths)
            assert list(batch) == sequential
            # the RNG streams must land in the same state, so later draws agree too
            if hasattr(sequential_sel, "_rng"):
                assert (sequential_sel._rng.bit_generator.state
                        == batch_sel._rng.bit_generator.state)

    def test_flowlet_adaptive(self):
        """Both branches of the batch: rows choosing among acceptable paths (every
        row, or a mix) and rows falling back to the least loaded (every row)."""
        for load_range in (self.MIXED, self.ALL_ACCEPTABLE, self.NONE_ACCEPTABLE):
            self._assert_batch_matches_sequential(
                lambda: FlowletSelector(seed=3, adaptive=True), load_range=load_range)

    def test_flowlet_adaptive_single_padded_row(self):
        """The one-row fast path ignores the +inf padding beyond the row's paths."""
        for load_range in (self.MIXED, self.ALL_ACCEPTABLE, self.NONE_ACCEPTABLE):
            self._assert_batch_matches_sequential(
                lambda: FlowletSelector(seed=3, adaptive=True), seed_pool=range(20),
                num_flows=1, load_range=load_range, pad=2)

    def test_initial_path_draw_matches_choice(self):
        """initial_path's memoised draw is rng.choice over the shortest candidates."""
        selector = FlowletSelector(seed=9, adaptive=True)
        rng = np.random.default_rng(9)
        case = np.random.default_rng(1)
        for _ in range(200):
            lengths = case.integers(1, 4, size=int(case.integers(1, 7))).tolist()
            shortest = np.flatnonzero(np.asarray(lengths) == min(lengths))
            assert selector.initial_path(0, len(lengths), path_lengths=lengths) \
                == int(rng.choice(shortest))
            assert selector._rng.bit_generator.state == rng.bit_generator.state

    def test_flowlet_nonadaptive_unbiased(self):
        """LetFlow's uniform draw, batched and through the one-row fast path."""
        self._assert_batch_matches_sequential(
            lambda: FlowletSelector(seed=4, adaptive=False))
        self._assert_batch_matches_sequential(
            lambda: FlowletSelector(seed=4, adaptive=False), seed_pool=range(20),
            num_flows=1, pad=2)

    def test_packet_spray(self):
        self._assert_batch_matches_sequential(lambda: PacketSpraySelector(seed=6))

    def test_ecmp_returns_currents(self):
        self._assert_batch_matches_sequential(lambda: EcmpSelector(seed=7))

    def test_numpy_draw_consumption_identities(self):
        """The numpy facts the vectorized selectors rely on: bounded integers with an
        array of bounds and random(k) consume the bit stream element-by-element."""
        bounds = [3, 5, 1, 7, 2, 1, 9]
        a_rng = np.random.default_rng(42)
        b_rng = np.random.default_rng(42)
        assert [int(a_rng.integers(0, b)) for b in bounds] \
            == b_rng.integers(0, np.array(bounds)).tolist()
        assert a_rng.bit_generator.state == b_rng.bit_generator.state
        assert [a_rng.random() for _ in range(9)] == b_rng.random(9).tolist()
        assert a_rng.bit_generator.state == b_rng.bit_generator.state
