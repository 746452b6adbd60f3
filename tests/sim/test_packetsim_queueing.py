"""Tests for the packet-level simulator and the queueing model."""

import numpy as np
import pytest

from repro.core.config import FatPathsConfig
from repro.core.fatpaths import FatPathsRouting
from repro.core.loadbalance import EcmpSelector, FlowletSelector
from repro.core.transport import ndp_transport, tcp_transport
from repro.routing import EcmpRouting
from repro.sim.packetengine import PacketEngine
from repro.sim.packetsim import PacketLevelSimulator, PacketSimConfig
from repro.sim.queueing import mg1_ps_fct, offered_load, predict_fct_distribution
from repro.topologies import slim_fly, star
from repro.traffic.flows import Flow, Workload


LINE_RATE = 10e9 / 8


@pytest.fixture(scope="module")
def sf():
    return slim_fly(5)


@pytest.fixture(scope="module")
def sf_fatpaths(sf):
    return FatPathsRouting(sf, FatPathsConfig(num_layers=4, rho=0.7, seed=0))


class TestPacketSim:
    def test_single_flow_completes_with_sane_fct(self, sf, sf_fatpaths):
        size = 256 * 1024
        sim = PacketLevelSimulator(sf, sf_fatpaths, seed=0)
        result = sim.run(Workload([Flow(0.0, 0, 50, size)]))
        record = result.records[0]
        assert record.completion_time is not None
        ideal = size / LINE_RATE
        assert ideal <= record.fct < 20 * ideal

    def test_all_flows_complete(self, sf, sf_fatpaths):
        flows = [Flow(0.0, e, 100 + e, 64 * 1024) for e in range(8)]
        sim = PacketLevelSimulator(sf, sf_fatpaths, seed=0)
        result = sim.run(Workload(flows))
        assert len(result) == 8
        assert all(r.fct > 0 for r in result.records)

    def test_congestion_causes_trimming_with_ndp(self, sf):
        """Many senders into one destination router overflow its queues: NDP trims."""
        p = sf.concentration
        routing = EcmpRouting(sf, seed=0)
        flows = [Flow(0.0, e * p, 30 * p, 512 * 1024) for e in range(1, 8)]
        sim = PacketLevelSimulator(sf, routing, selector=EcmpSelector(),
                                   transport=ndp_transport(), seed=0)
        result = sim.run(Workload(flows))
        assert result.meta["total_trims"] > 0
        assert result.meta["total_drops"] == 0

    def test_congestion_causes_drops_with_tcp(self, sf):
        p = sf.concentration
        routing = EcmpRouting(sf, seed=0)
        flows = [Flow(0.0, e * p, 30 * p, 512 * 1024) for e in range(1, 8)]
        sim = PacketLevelSimulator(sf, routing, selector=EcmpSelector(),
                                   transport=tcp_transport(), seed=0)
        result = sim.run(Workload(flows))
        assert result.meta["total_drops"] > 0
        # flows still finish thanks to RTO-based retransmission
        assert all(r.fct > 0 for r in result.records)

    def test_flowlet_switching_uses_multiple_paths(self, sf, sf_fatpaths):
        flows = [Flow(0.0, 0, 50, 1024 * 1024)]
        sim = PacketLevelSimulator(sf, sf_fatpaths,
                                   selector=FlowletSelector(seed=0, adaptive=False),
                                   config=PacketSimConfig(flowlet_packets=4), seed=0)
        result = sim.run(Workload(flows))
        assert result.records[0].num_path_switches > 0

    def test_star_topology(self):
        topo = star(4)
        routing = EcmpRouting(topo)
        sim = PacketLevelSimulator(topo, routing, seed=0)
        result = sim.run(Workload([Flow(0.0, 0, 2, 64 * 1024)]))
        assert result.records[0].fct > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PacketSimConfig(packet_bytes=32, header_bytes=64)
        with pytest.raises(ValueError):
            PacketSimConfig(queue_packets=0)


class TestConfigValidation:
    """Every PacketSimConfig parameter rejects its degenerate values."""

    @pytest.mark.parametrize("kwargs", [
        {"packet_bytes": 64, "header_bytes": 64},
        {"queue_packets": 0},
        {"window_packets": 0},
        {"link_rate_bps": 0.0},
        {"link_rate_bps": -1e9},
        {"rto": 0.0},
        {"per_hop_latency": 0.0},
        {"host_latency": -1e-6},
        {"flowlet_packets": 0},
        {"max_events": 0},
        {"link_rate_bps": float("nan")},
        {"link_rate_bps": float("inf")},
        {"per_hop_latency": float("nan")},
        {"host_latency": float("inf")},
        {"rto": float("nan")},
        {"rto": float("inf")},
    ])
    def test_rejects_degenerate(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))) as info:
            PacketSimConfig(**kwargs)
        assert "\n" not in str(info.value)

    def test_defaults_are_valid(self):
        cfg = PacketSimConfig()
        assert cfg.packet_bytes > cfg.header_bytes
        assert cfg.queue_packets >= 1 and cfg.window_packets >= 1


class TestPacketInvariants:
    """Property checks on the engine's post-run counters and serialisation trace:
    packet conservation, bounded queues, the priority lane, the sender window and
    monotone per-link reservations."""

    @pytest.fixture(scope="class")
    def incast(self, sf):
        """An NDP incast that overflows the destination router's queues."""
        p = sf.concentration
        routing = EcmpRouting(sf, seed=0)
        flows = [Flow(0.0, e * p, 30 * p, 512 * 1024) for e in range(1, 8)]
        sim = PacketEngine(sf, routing, selector=EcmpSelector(),
                           transport=ndp_transport(), seed=0)
        sim.trace = []
        result = sim.run(Workload(flows))
        return sim, result

    def test_conservation(self, incast):
        """Every flow completes, and the per-flow congestion counters add up to
        the global trim/drop totals — no event is lost or double-counted."""
        _, result = incast
        assert all(r.completion_time > r.start_time for r in result.records)
        assert (sum(r.congestion_events for r in result.records)
                == result.meta["total_trims"] + result.meta["total_drops"])

    def test_queue_occupancy_bounded(self, incast):
        """Non-priority admissions never observe more than queue_packets queued."""
        sim, _ = incast
        assert 0 < sim.last_stats["max_queued"] <= sim.config.queue_packets

    def test_priority_headers_bypass_full_queues(self, incast):
        """Trimmed headers are admitted past full queues (the priority lane)."""
        sim, result = incast
        assert result.meta["total_trims"] > 0
        assert sim.last_stats["priority_bypass"] > 0

    def test_window_bounds_in_flight(self, incast):
        """No header-preserving flow ever exceeds the configured sender window."""
        sim, _ = incast
        assert max(sim.last_stats["max_in_flight"]) <= sim.config.window_packets

    def test_serialization_monotone_per_link(self, incast):
        """Each link's departure reservations are nondecreasing: serialisations
        never overlap on one link."""
        sim, _ = incast
        assert sim.trace
        last = {}
        for link, departure in sim.trace:
            assert departure >= last.get(link, 0.0)
            last[link] = departure

    def test_final_occupancy_drains_to_zero(self, incast):
        """After the run every queue has drained (all drains flushed)."""
        sim, _ = incast
        assert all(q == 0 for q in sim.final_link_state["queued"])

    def test_tcp_window_and_drops(self, sf):
        """The TCP path: drops happen, flows still finish via RTOs, and the
        queue bound holds without a priority lane."""
        p = sf.concentration
        routing = EcmpRouting(sf, seed=0)
        flows = [Flow(0.0, e * p, 30 * p, 256 * 1024) for e in range(1, 8)]
        sim = PacketEngine(sf, routing, selector=EcmpSelector(),
                           transport=tcp_transport(), seed=0)
        result = sim.run(Workload(flows))
        assert result.meta["total_drops"] > 0
        assert all(r.completion_time > r.start_time for r in result.records)
        assert sim.last_stats["max_queued"] <= sim.config.queue_packets
        assert sim.last_stats["priority_bypass"] == 0


class TestQueueingModel:
    def test_offered_load(self):
        load = offered_load(200, 1e6, 10e9)
        assert load == pytest.approx(200 * 1e6 / 1.25e9)

    def test_offered_load_validation(self):
        with pytest.raises(ValueError):
            offered_load(1, 0, 10e9)

    def test_fct_grows_with_load(self):
        low = mg1_ps_fct(1e6, 0.1, 10e9)
        high = mg1_ps_fct(1e6, 0.8, 10e9)
        assert high > low
        assert low == pytest.approx(1e6 / 1.25e9 / 0.9)

    def test_fct_validation(self):
        with pytest.raises(ValueError):
            mg1_ps_fct(1e6, 1.0, 10e9)
        with pytest.raises(ValueError):
            mg1_ps_fct(0, 0.5, 10e9)

    def test_distribution_prediction(self):
        sizes = np.full(1000, 1e6)
        samples = predict_fct_distribution(sizes, 0.5, 10e9, jitter=0.3,
                                           rng=np.random.default_rng(0))
        assert samples.shape == (1000,)
        # lognormal jitter with mean-one correction keeps the mean close to the model
        assert samples.mean() == pytest.approx(mg1_ps_fct(1e6, 0.5, 10e9), rel=0.1)

    def test_distribution_no_jitter(self):
        sizes = [1e6, 2e6]
        out = predict_fct_distribution(sizes, 0.2, 10e9, jitter=0.0)
        assert out[1] == pytest.approx(2 * out[0])
