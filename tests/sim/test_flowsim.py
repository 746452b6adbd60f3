"""Tests for the flow-level simulator."""

import numpy as np
import pytest

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.loadbalance import EcmpSelector, FlowletSelector
from repro.core.transport import ndp_transport, tcp_transport
from repro.routing import EcmpRouting
from repro.sim.flowsim import FlowSimConfig, StreamConfig, simulate_workload
from repro.sim.metrics import speedup_over_baseline, summarize_flows
from repro.sim.reference import FlowLevelSimulator
from repro.topologies import slim_fly, star
from repro.traffic.flows import Flow, Workload, uniform_size_workload
from repro.traffic.patterns import off_diagonal, random_permutation


LINE_RATE = 10e9 / 8  # bytes/s


@pytest.fixture(scope="module")
def sf():
    return slim_fly(5)


@pytest.fixture(scope="module")
def sf_fatpaths(sf):
    return FatPathsRouting(sf, FatPathsConfig(num_layers=5, rho=0.7, seed=0))


class TestBasicBehaviour:
    def test_single_flow_runs_at_line_rate(self, sf, sf_fatpaths):
        size = 10e6
        wl = Workload([Flow(0.0, 0, 50, size)])
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        assert len(result) == 1
        record = result.records[0]
        expected = size / LINE_RATE
        assert record.fct == pytest.approx(expected, rel=0.05)

    def test_two_flows_same_source_share_injection_link(self, sf, sf_fatpaths):
        size = 10e6
        wl = Workload([Flow(0.0, 0, 50, size), Flow(0.0, 0, 101, size)])
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        for record in result.records:
            assert record.fct >= 2 * size / LINE_RATE * 0.9

    def test_flows_complete_in_size_order_when_sharing(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 50, 1e6), Flow(0.0, 1, 51, 8e6)])
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        small = next(r for r in result.records if r.size_bytes == 1e6)
        big = next(r for r in result.records if r.size_bytes == 8e6)
        assert small.fct < big.fct

    def test_same_router_flow_bottlenecked_by_nic(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 1, 1e6)])  # endpoints 0 and 1 share router 0
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        assert result.records[0].fct == pytest.approx(1e6 / LINE_RATE, rel=0.1)

    def test_later_start_time_shifts_completion(self, sf, sf_fatpaths):
        wl = Workload([Flow(1.0, 0, 50, 1e6)])
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        assert result.records[0].completion_time > 1.0
        assert result.records[0].fct < 1.0

    def test_records_sorted_by_flow_id(self, sf, sf_fatpaths):
        pattern = random_permutation(sf.num_endpoints, np.random.default_rng(0)).subsample(
            0.2, np.random.default_rng(1))
        wl = uniform_size_workload(pattern, 256 * 1024)
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        ids = [r.flow_id for r in result.records]
        assert ids == sorted(ids)
        assert len(result) == len(wl)

    def test_mapping_is_applied(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 1, 1e6)])  # same router without mapping
        last = sf.num_endpoints - 1
        mapping = np.arange(sf.num_endpoints)
        mapping[[1, last]] = [last, 1]        # move destination to the last router
        result = simulate_workload(sf, sf_fatpaths, wl, mapping=mapping, seed=0)
        assert result.records[0].destination == last
        assert result.records[0].path_hops >= 1

    def test_star_topology_baseline(self):
        """On a crossbar the only contention is at endpoint links."""
        topo = star(8)
        routing = EcmpRouting(topo)
        wl = Workload([Flow(0.0, 0, 4, 1e6), Flow(0.0, 1, 5, 1e6)])
        result = simulate_workload(topo, routing, wl, seed=0)
        for r in result.records:
            assert r.fct == pytest.approx(1e6 / LINE_RATE, rel=0.1)


class TestCongestionAndAdaptivity:
    def test_colliding_flows_slower_with_single_path(self, sf):
        """Many flows forced onto the same router pair collide on the single shortest
        path under ECMP, but spread over layers with FatPaths."""
        p = sf.concentration
        ecmp = EcmpRouting(sf, seed=0)
        fatpaths = FatPathsRouting(sf, FatPathsConfig(num_layers=6, rho=0.7, seed=0))
        # all p endpoints of router 0 send to distinct endpoints of router 30
        flows = [Flow(0.0, e, 30 * p + e, 4e6) for e in range(p)]
        wl = Workload(flows)
        r_ecmp = simulate_workload(sf, ecmp, wl, selector=EcmpSelector(), seed=0)
        r_fp = simulate_workload(sf, fatpaths, wl, selector=FlowletSelector(seed=0), seed=0)
        assert r_fp.summary()["fct_mean"] <= r_ecmp.summary()["fct_mean"] * 1.05
        # under ECMP every flow shares one inter-router link: FCT ~ p * size / rate
        assert r_ecmp.summary()["fct_mean"] > 2 * 4e6 / LINE_RATE

    def test_path_switches_happen_for_long_flows(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 50, 8e6), Flow(0.0, 4, 54, 8e6)])
        result = simulate_workload(sf, sf_fatpaths, wl,
                                   selector=FlowletSelector(seed=1, adaptive=False),
                                   seed=1)
        assert any(r.num_path_switches > 0 for r in result.records)

    def test_tcp_transport_adds_startup_delay(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 50, 64 * 1024)])
        ndp = simulate_workload(sf, sf_fatpaths, wl, transport=ndp_transport(), seed=0)
        tcp = simulate_workload(sf, sf_fatpaths, wl, transport=tcp_transport(), seed=0)
        assert tcp.records[0].fct > ndp.records[0].fct


class TestMetrics:
    def test_summary_fields(self, sf, sf_fatpaths):
        pattern = off_diagonal(sf.num_endpoints, 3 * sf.concentration)
        wl = uniform_size_workload(pattern.subsample(0.2, np.random.default_rng(0)), 1e6)
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        summary = result.summary()
        assert summary["count"] == len(wl)
        assert summary["fct_p99"] >= summary["fct_p50"] >= 0
        assert summary["throughput_mean"] > 0

    def test_warmup_filter(self, sf, sf_fatpaths):
        flows = [Flow(t * 0.01, 0, 50 + t, 1e5) for t in range(10)]
        result = simulate_workload(sf, sf_fatpaths, Workload(flows), seed=0)
        filtered = result.warmup_filtered(0.5)
        assert 0 < len(filtered) < len(result)

    def test_by_size_bucket(self, sf, sf_fatpaths):
        flows = [Flow(0.0, 0, 50, 32 * 1024), Flow(0.0, 1, 51, 2e6)]
        result = simulate_workload(sf, sf_fatpaths, Workload(flows), seed=0)
        buckets = result.by_size_bucket([64 * 1024, 4e6])
        assert len(buckets[64 * 1024]) == 1
        assert len(buckets[4e6]) == 1

    def test_speedup_over_baseline(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 50, 1e6)])
        a = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        assert speedup_over_baseline(a, a) == pytest.approx(1.0)

    def test_empty_summary(self):
        assert summarize_flows([]) == {"count": 0}

    @pytest.mark.parametrize("cls, kwargs", [
        (FlowSimConfig, {"link_rate_bps": 0}),
        (FlowSimConfig, {"link_rate_bps": float("nan")}),
        (FlowSimConfig, {"link_rate_bps": float("inf")}),
        (FlowSimConfig, {"per_hop_latency": float("nan")}),
        (FlowSimConfig, {"per_hop_latency": -1e-6}),
        (FlowSimConfig, {"host_latency": -1.0}),
        (FlowSimConfig, {"host_latency": float("inf")}),
        (FlowSimConfig, {"flowlet_bytes": 0}),
        (FlowSimConfig, {"flowlet_bytes": float("nan")}),
        (FlowSimConfig, {"congestion_rate_fraction": 1.5}),
        (FlowSimConfig, {"congestion_rate_fraction": -0.1}),
        (FlowSimConfig, {"congestion_rate_fraction": float("nan")}),
        (FlowSimConfig, {"rate_epsilon": 0.0}),
        (FlowSimConfig, {"rate_epsilon": float("inf")}),
        (StreamConfig, {"window": float("nan")}),
        (StreamConfig, {"window": float("inf")}),
        (StreamConfig, {"compact_factor": float("inf")}),
        (StreamConfig, {"compact_factor": float("nan")}),
    ])
    def test_config_validation(self, cls, kwargs):
        """Out-of-range, NaN and infinite values fail loudly, naming the field."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=name) as info:
            cls(**kwargs)
        assert "\n" not in str(info.value)

    def test_config_accepts_edge_values(self):
        """Zero latencies, an infinite flowlet (never switch) and the closed
        ends of the congestion fraction stay valid."""
        FlowSimConfig(per_hop_latency=0.0, host_latency=0.0,
                      flowlet_bytes=float("inf"), congestion_rate_fraction=1.0)
        FlowSimConfig(congestion_rate_fraction=0.0)


class TestEngineDispatch:
    """simulate_workload runs the vectorized engine; the preserved scalar reference
    runs when constructed directly.  The full record-level pinning lives in
    tests/sim/test_engine_equivalence.py."""

    def test_default_engine_is_vectorized(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 50, 1e6)])
        result = simulate_workload(sf, sf_fatpaths, wl, seed=0)
        assert result.meta["engine"] == "engine"

    def test_reference_escape_hatch(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, 50, 1e6)])
        result = FlowLevelSimulator(sf, sf_fatpaths, seed=0).run(wl)
        assert result.meta["engine"] == "reference"

    def test_empty_workload(self, sf, sf_fatpaths):
        assert len(simulate_workload(sf, sf_fatpaths, Workload([]), seed=0)) == 0
        assert len(FlowLevelSimulator(sf, sf_fatpaths, seed=0).run(Workload([]))) == 0

    def test_endpoint_out_of_range_rejected(self, sf, sf_fatpaths):
        wl = Workload([Flow(0.0, 0, sf.num_endpoints + 3, 1e6)])
        with pytest.raises(ValueError):
            simulate_workload(sf, sf_fatpaths, wl, seed=0)
