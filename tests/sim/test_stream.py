"""Streaming service correctness: the stream driver is pinned to the batch engine.

Three pillars (see ``docs/streaming.md``):

* **Chunked replay** — feeding a workload to :class:`repro.sim.stream.StreamSimulator`
  chunk by chunk, with compaction forced between chunks, must reproduce
  :func:`repro.sim.flowsim.simulate_workload`'s records *bit for bit* (all fields,
  including completion times) across stacks, allocators, and fault schedules.
* **Checkpoint/restore** — a run interrupted by :meth:`~repro.sim.stream.StreamSimulator.checkpoint`
  (pickled round-trip, taken mid-fault-epoch) and resumed on a fresh simulator must
  be bit-identical to the uninterrupted run: records, engine meta, final link
  utilisation, windows and summary.  Counters such as compaction counts depend on
  the *driving pattern* (push/advance sequence), so both runs drive identically.
* **Bounded memory** — on a long arrival stream the peak slot/pool/bank occupancy
  must stay proportional to the active-flow population, not the arrival count.

Plus the streaming estimators (:class:`~repro.sim.metrics.P2Quantile`,
:class:`~repro.sim.metrics.ReservoirSample`) and the batch engine's in-run pool
compaction (``meta["pool_compactions"]``).
"""

import math
import pickle

import numpy as np
import pytest

from repro.core.mapping import random_mapping
from repro.experiments.simcommon import build_stack
from repro.sim.faults import sample_link_faults
from repro.sim.flowsim import FlowSimConfig, simulate_workload
from repro.sim.metrics import P2Quantile, ReservoirSample
from repro.sim.reference import FlowLevelSimulator
from repro.sim.stream import CHECKPOINT_VERSION, StreamConfig, StreamSimulator
from repro.topologies import comparable_configurations
from repro.topologies.configs import SizeClass
from repro.traffic.flows import Flow, poisson_workload
from repro.traffic.patterns import incast_pattern, random_permutation
from repro.traffic.streams import poisson_flow_stream

#: Tiny slot thresholds so compaction fires many times inside tiny workloads.
TIGHT = StreamConfig(window=0.01, min_retired=32, initial_slots=32,
                     compact_factor=1.0, record_ring=8192)

CHUNK = 150


@pytest.fixture(scope="module")
def topo():
    return comparable_configurations(SizeClass.TINY, topologies=["SF"], seed=0)["SF"]


@pytest.fixture(scope="module")
def workload(topo):
    rng = np.random.default_rng(0)
    pattern = random_permutation(topo.num_endpoints, rng).subsample(0.5, rng)
    return poisson_workload(pattern, 400.0, 0.05, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def flows(workload):
    """The workload in global start-time order — the stream ingestion contract."""
    return workload.sorted_by_start()


@pytest.fixture(scope="module")
def fault_config(topo):
    faults = sample_link_faults(topo, fraction=0.08, rng=np.random.default_rng(4),
                                fail_time=0.004, restore_time=0.03)
    return FlowSimConfig(faults=faults)


def batch_run(topo, stack_name, workload, config=None):
    stack = build_stack(topo, stack_name, seed=0)
    return simulate_workload(topo, stack.routing, workload, selector=stack.selector,
                             transport=stack.transport, config=config, seed=0)


def stream_sim(topo, stack_name, config=None, stream_config=TIGHT, **kwargs):
    stack = build_stack(topo, stack_name, seed=0)
    return StreamSimulator(topo, stack.routing, selector=stack.selector,
                           transport=stack.transport, config=config, seed=0,
                           stream_config=stream_config, **kwargs)


def assert_records_identical(reference, records):
    """Every field bit-identical — stream and batch share the same engine core.

    Batch results are in flow-id order while the stream retires records in
    completion order, so both sides are keyed by flow id before comparing.
    """
    assert len(reference) == len(records)
    for ref, got in zip(sorted(reference, key=lambda r: r.flow_id),
                        sorted(records, key=lambda r: r.flow_id)):
        assert ref.flow_id == got.flow_id
        assert ref.source == got.source
        assert ref.destination == got.destination
        assert ref.size_bytes == got.size_bytes
        assert ref.start_time == got.start_time
        assert ref.completion_time == got.completion_time
        assert ref.path_hops == got.path_hops
        assert ref.num_path_switches == got.num_path_switches
        assert ref.congestion_events == got.congestion_events


def chunked_replay(sim, flows, chunk=CHUNK, compact_between=True):
    """Push ``flows`` in chunks, advancing strictly below each next chunk's start.

    ``compact_between`` forces a slot compaction at every chunk boundary on top
    of the automatic policy — the acceptance harness for bounded-memory replay.
    """
    chunks = [flows[i:i + chunk] for i in range(0, len(flows), chunk)]
    for i, part in enumerate(chunks):
        sim.push(part)
        if i + 1 < len(chunks):
            sim.advance(float(chunks[i + 1][0].start_time), inclusive=False)
            if compact_between:
                sim.compact()
    return sim.finish()


# ------------------------------------------------------------- chunked replay
class TestChunkedReplay:
    @pytest.mark.parametrize("stack_name", ["fatpaths", "ecmp", "ndp"])
    def test_matches_batch(self, topo, workload, flows, stack_name):
        batch = batch_run(topo, stack_name, workload)
        sink = []
        sim = stream_sim(topo, stack_name, record_sink=sink.append)
        summary = chunked_replay(sim, flows)
        assert_records_identical(batch.records, sink)
        assert summary["events"] == batch.meta["events"]
        assert summary["completions"] == len(batch)
        assert summary["active"] == 0 and summary["pending"] == 0
        assert summary["slot_compactions"] > 0

    def test_matches_batch_under_faults(self, topo, workload, flows, fault_config):
        batch = batch_run(topo, "fatpaths", workload, config=fault_config)
        sink = []
        sim = stream_sim(topo, "fatpaths", config=fault_config,
                         record_sink=sink.append)
        summary = chunked_replay(sim, flows)
        assert_records_identical(batch.records, sink)
        assert sim.meta()["reroutes"] == batch.meta["reroutes"]
        assert sim.meta()["fault_events"] == batch.meta["fault_events"]
        assert summary["bank_reclaimed"] > 0

    @pytest.mark.parametrize("allocator", ["incremental", "bottleneck"])
    def test_matches_batch_refiltering_allocator(self, topo, workload, flows,
                                                 allocator):
        config = FlowSimConfig(allocator=allocator)
        batch = batch_run(topo, "fatpaths", workload, config=config)
        sink = []
        sim = stream_sim(topo, "fatpaths", config=config, record_sink=sink.append)
        chunked_replay(sim, flows)
        assert_records_identical(batch.records, sink)

    def test_compaction_rebinds_bottleneck_structure(self, topo, workload, flows):
        """Forced slot compactions must leave the bottleneck caches consistent
        with the (renumbered) live incidence at every chunk boundary."""
        config = FlowSimConfig(allocator="bottleneck")
        sim = stream_sim(topo, "fatpaths", config=config)
        chunks = [flows[i:i + CHUNK] for i in range(0, len(flows), CHUNK)]
        compactions = 0
        for i, part in enumerate(chunks):
            sim.push(part)
            if i + 1 < len(chunks):
                sim.advance(float(chunks[i + 1][0].start_time), inclusive=False)
                compactions += 1 if sim.compact() else 0
                alloc = sim.core.alloc
                links, slots = alloc.state.live_entries()
                loads = np.bincount(links, weights=alloc._rates[slots],
                                    minlength=alloc.capacities.shape[0])
                np.testing.assert_allclose(alloc.link_load, loads,
                                           rtol=1e-9, atol=1e-9)
                for link, members in alloc.link_members.items():
                    live = set(np.unique(slots[links == link]).tolist())
                    kept = {s for s in members if alloc.state.active_mask[s]}
                    assert live <= kept    # members may be stale, never missing
        assert compactions > 0
        sim.finish()

    def test_run_generator_driver(self, topo, workload, flows):
        """run() over a flow iterator equals the batch result and chunked push."""
        batch = batch_run(topo, "fatpaths", workload)
        sink = []
        sim = stream_sim(topo, "fatpaths", record_sink=sink.append)
        summary = sim.run(iter(flows))
        assert_records_identical(batch.records, sink)
        assert summary["events"] == batch.meta["events"]

    def test_record_ring_without_sink(self, topo, flows):
        """No sink: the bounded ring keeps the most recent completions.

        ``record_ring`` only bounds the deque — it never feeds back into the
        dynamics — so a sink-equipped twin run defines the completion order the
        ring's tail must match.
        """
        cfg = StreamConfig(window=0.01, min_retired=32, initial_slots=32,
                           compact_factor=1.0, record_ring=64)
        sink = []
        chunked_replay(stream_sim(topo, "fatpaths", record_sink=sink.append),
                       flows)
        sim = stream_sim(topo, "fatpaths", stream_config=cfg)
        chunked_replay(sim, flows)
        assert len(sim.records) == 64
        assert_records_identical(sink[-64:], list(sim.records))


# -------------------------------------------------------- push/advance driver
class TestPushAdvance:
    def test_push_out_of_order_raises(self, topo):
        sim = stream_sim(topo, "fatpaths")
        flows = [Flow(0.2, 0, 1, 1e6, flow_id=0), Flow(0.1, 2, 3, 1e6, flow_id=1)]
        with pytest.raises(ValueError, match="ordered by start time"):
            sim.push(flows)

    def test_push_into_past_raises(self, topo):
        sim = stream_sim(topo, "fatpaths")
        sim.push([Flow(0.0, 0, 1, 1e6, flow_id=0)])
        sim.advance()
        assert sim.now > 0.0
        with pytest.raises(ValueError, match="before the current simulated time"):
            sim.push([Flow(0.0, 2, 3, 1e6, flow_id=1)])

    def test_push_assigns_service_ids(self, topo):
        """Negative flow ids get sequential service ids; ingestion is passive."""
        sim = stream_sim(topo, "fatpaths")
        flows = [Flow(0.0, 0, 1, 1e6), Flow(0.0, 2, 3, 1e6), Flow(0.1, 4, 5, 1e6)]
        assert all(f.flow_id == -1 for f in flows)
        assert sim.push(flows) == 3
        assert [f.flow_id for f in flows] == [0, 1, 2]
        assert sim.now == 0.0 and sim.active_count == 0     # no events processed
        assert sim.push([]) == 0
        processed = sim.advance()
        assert processed > 0
        assert sim.active_count == 0
        assert len(sim.records) == 3

    def test_advance_exclusive_horizon(self, topo):
        """inclusive=False leaves events at exactly ``until`` unprocessed."""
        sim = stream_sim(topo, "fatpaths")
        sim.push([Flow(0.0, 0, 1, 1e6, flow_id=0), Flow(0.5, 2, 3, 1e6, flow_id=1)])
        sim.advance(0.5, inclusive=False)
        assert sim.now < 0.5
        completed_early = len(sim.records)
        sim.advance()
        assert len(sim.records) == 2
        assert completed_early >= 1                          # first flow finished


# ------------------------------------------------------------- bounded memory
class TestBoundedMemory:
    def test_peaks_track_active_not_arrivals(self, topo):
        """A long stream's slot/pool peaks stay near the concurrent population."""
        rng = np.random.default_rng(7)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.5, rng)
        stream = poisson_flow_stream(pattern, 2000.0, rng=np.random.default_rng(8),
                                     duration=0.5, fixed_size=64 * 1024.0)
        sink = []
        sim = stream_sim(topo, "fatpaths", record_sink=sink.append)
        summary = sim.run(stream)
        assert summary["arrivals"] > 5000
        assert summary["completions"] == summary["arrivals"]
        # slots are a small multiple of the live population, far below arrivals
        assert summary["peak_slots"] < summary["arrivals"] / 10
        assert summary["peak_slots"] <= 4 * max(summary["peak_active"], TIGHT.min_retired)
        assert summary["slot_compactions"] > 10
        assert summary["windows"] > 10

    def test_selector_memo_bounded_by_router_pairs(self, topo):
        """Under light load most events re-pick one flow, whose lengths row the
        engine builds afresh; the selector's row memo must still hold at most
        one item per resolved router pair."""
        rng = np.random.default_rng(3)
        pattern = random_permutation(topo.num_endpoints, rng).subsample(0.2, rng)
        flows = list(poisson_flow_stream(pattern, 50.0, rng=rng, max_flows=600))
        sim = stream_sim(topo, "fatpaths", record_sink=lambda record: None)
        memo, pairs = sim.core.selector._row_memo, sim.core.bank.entries
        for i in range(0, len(flows), 20):
            sim.push(flows[i:i + 20])
            if i + 20 < len(flows):
                sim.advance(float(flows[i + 20].start_time), inclusive=False)
            assert len(memo) <= len(pairs)
        sim.finish()
        assert 0 < len(memo) <= len(pairs)


# --------------------------------------------------------- checkpoint/restore
def drive(sim, chunks, start=0):
    """The canonical chunked driver both runs of a determinism test must share."""
    for i in range(start, len(chunks)):
        sim.push(chunks[i])
        if i + 1 < len(chunks):
            sim.advance(float(chunks[i + 1][0].start_time), inclusive=False)
    return sim.finish()


def _flip_byte(blob, at=100):
    """``blob`` with the bits of one byte inverted."""
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def assert_scalar_maps_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), key
        else:
            assert va == vb, key


def assert_windows_equal(wa, wb):
    """WindowStats equality sans wall_seconds (the only wall-clock field)."""
    assert len(wa) == len(wb)
    for a, b in zip(wa, wb):
        for field in ("index", "start", "end", "arrivals", "completions", "events",
                      "fct_p50", "fct_p99", "fct_mean", "util_mean", "util_max",
                      "active", "sampled"):
            va, vb = getattr(a, field), getattr(b, field)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), field
            else:
                assert va == vb, field


class TestCheckpointRestore:
    CUT = 6   # checkpoint after driving this many chunks

    @pytest.mark.parametrize("allocator", ["full", "incremental", "bottleneck"])
    def test_bit_identical_resume_mid_fault_epoch(self, topo, flows,
                                                  fault_config, allocator):
        """Interrupt mid-fault-epoch, pickle the checkpoint, resume on a fresh
        simulator: records, meta, link state, windows and summary all match the
        uninterrupted run exactly."""
        config = FlowSimConfig(allocator=allocator, faults=fault_config.faults)
        chunks = [flows[i:i + CHUNK] for i in range(0, len(flows), CHUNK)]
        assert len(chunks) > self.CUT

        sim_a = stream_sim(topo, "fatpaths", config=config)
        summary_a = drive(sim_a, chunks)

        sim_b = stream_sim(topo, "fatpaths", config=config)
        for i in range(self.CUT):
            sim_b.push(chunks[i])
            sim_b.advance(float(chunks[i + 1][0].start_time), inclusive=False)
        # mid-epoch: some links are down and some flows already rerouted
        assert sim_b.core.fault_idx > 0
        assert sim_b.core.fault_idx < len(sim_b.core.fault_epochs)
        chk = pickle.loads(pickle.dumps(sim_b.checkpoint()))
        assert chk["version"] == CHECKPOINT_VERSION

        sim_c = stream_sim(topo, "fatpaths", config=config)
        sim_c.restore(chk)
        assert sim_c.now == sim_b.now
        assert sim_c.active_count == sim_b.active_count
        # the stack is referenced, never serialized: the restored state holds
        # the fresh simulator's own objects
        core, engine = sim_c.core, sim_c.engine
        assert core.topology is engine.topology
        assert core.routing is engine.routing
        assert core.links is engine.links
        assert core.capacities is engine.capacities
        assert core.alloc.capacities is engine.capacities
        assert core.faultrt.topology is engine.topology
        assert core.faultrt.links is engine.links
        assert core.bank is engine.bank
        summary_c = drive(sim_c, chunks, start=self.CUT)

        assert_records_identical(list(sim_a.records), list(sim_c.records))
        assert_scalar_maps_equal(sim_a.meta(), sim_c.meta())
        assert np.array_equal(sim_a.link_util, sim_c.link_util)
        assert_windows_equal(list(sim_a.windows), list(sim_c.windows))
        assert_scalar_maps_equal(summary_a, summary_c)

    def test_checkpoint_leaves_out_surviving_kernels(self, topo, flows, fault_config):
        """The surviving graph's kernels are a shared cache entry, not run
        state: the checkpoint pickles nothing from ``repro.kernels``, and the
        restored run refetches the entry on its next detour."""
        chunks = [flows[i:i + CHUNK] for i in range(0, len(flows), CHUNK)]
        sim = stream_sim(topo, "fatpaths", config=fault_config)
        for i in range(self.CUT):
            sim.push(chunks[i])
            sim.advance(float(chunks[i + 1][0].start_time), inclusive=False)
        faultrt = sim.core.faultrt
        assert faultrt.failed_edges
        pair = (0, topo.num_routers - 1)
        detour = faultrt.detour(*pair)
        assert faultrt.surviving is not None
        chk = sim.checkpoint()
        assert b"repro.kernels" not in chk["state"]

        restored = stream_sim(topo, "fatpaths", config=fault_config)
        restored.restore(chk)
        assert restored.core.faultrt.surviving is None
        assert restored.core.faultrt.detour(*pair) == detour

    def test_bit_identical_resume_no_faults(self, topo, flows):
        chunks = [flows[i:i + CHUNK] for i in range(0, len(flows), CHUNK)]
        sim_a = stream_sim(topo, "fatpaths")
        summary_a = drive(sim_a, chunks)

        sim_b = stream_sim(topo, "fatpaths")
        for i in range(self.CUT):
            sim_b.push(chunks[i])
            sim_b.advance(float(chunks[i + 1][0].start_time), inclusive=False)
        chk = pickle.loads(pickle.dumps(sim_b.checkpoint()))

        sim_c = stream_sim(topo, "fatpaths")
        sim_c.restore(chk)
        summary_c = drive(sim_c, chunks, start=self.CUT)
        assert_records_identical(list(sim_a.records), list(sim_c.records))
        assert_scalar_maps_equal(summary_a, summary_c)
        assert_scalar_maps_equal(sim_a.meta(), sim_c.meta())

    def test_restore_requires_fresh_simulator(self, topo):
        sim = stream_sim(topo, "fatpaths")
        chk = sim.checkpoint()
        sim.push([Flow(0.0, 0, 1, 1e6, flow_id=0)])
        sim.advance()
        with pytest.raises(ValueError, match="freshly constructed"):
            sim.restore(chk)

    def test_restore_rejects_version_mismatch(self, topo):
        sim = stream_sim(topo, "fatpaths")
        chk = sim.checkpoint()
        chk["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="checkpoint version"):
            stream_sim(topo, "fatpaths").restore(chk)

    def test_restore_rejects_stack_mismatch(self, topo):
        chk = stream_sim(topo, "fatpaths").checkpoint()
        with pytest.raises(ValueError, match="stack mismatch"):
            stream_sim(topo, "ecmp").restore(chk)
        chk2 = stream_sim(topo, "fatpaths").checkpoint()
        other = stream_sim(topo, "fatpaths",
                           config=FlowSimConfig(allocator="incremental"))
        with pytest.raises(ValueError, match="stack mismatch"):
            other.restore(chk2)
        rng = np.random.default_rng(5)
        mapping_a = random_mapping(topo.num_endpoints, rng)
        mapping_b = random_mapping(topo.num_endpoints, rng)
        chk3 = stream_sim(topo, "fatpaths", mapping=mapping_a).checkpoint()
        for mapping in (mapping_b, None):
            with pytest.raises(ValueError, match="stack mismatch on 'mapping'"):
                stream_sim(topo, "fatpaths", mapping=mapping).restore(chk3)
        stream_sim(topo, "fatpaths", mapping=mapping_a.copy()).restore(chk3)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda chk: chk.update(state=chk["state"][:len(chk["state"]) // 2]),
         "corrupt"),
        (lambda chk: chk.update(state=_flip_byte(chk["state"])), "corrupt"),
        (lambda chk: chk.update(version=1), "checkpoint version"),
        (lambda chk: chk.pop("sha256"), "missing sha256"),
        (lambda chk: chk.update(code="0" * 64), "different code"),
    ], ids=["truncated", "flipped-byte", "wrong-version", "missing-key",
            "foreign-code"])
    def test_restore_rejects_corrupt_checkpoint(self, topo, flows, corrupt, match):
        """A bad checkpoint fails with a one-line ValueError before any state
        of the restoring simulator changes."""
        sim = stream_sim(topo, "fatpaths")
        sim.push(flows[:CHUNK])
        sim.advance(float(flows[CHUNK].start_time), inclusive=False)
        chk = pickle.loads(pickle.dumps(sim.checkpoint()))
        corrupt(chk)
        fresh = stream_sim(topo, "fatpaths")
        core = fresh.core
        with pytest.raises(ValueError, match=match) as info:
            fresh.restore(chk)
        assert "\n" not in str(info.value)
        assert fresh.core is core and core.events == 0 and core.count == 0


# ---------------------------------------------- batch engine pool compaction
class TestBatchPoolCompaction:
    def test_batch_run_compacts_and_matches_reference(self, topo):
        """The staggered-incast regime drives the batch engine's in-run pool
        compaction (``AllocationState.maybe_compact``) while the records stay
        pinned to the scalar reference."""
        pattern = incast_pattern(topo.num_endpoints, num_hotspots=8, fanin=8,
                                 rng=np.random.default_rng(0),
                                 disjoint_senders=True)
        workload = poisson_workload(pattern, 500.0, 12 / 500.0,
                                    rng=np.random.default_rng(1),
                                    fixed_size=256 * 1024.0)
        engine = batch_run(topo, "ecmp", workload)
        assert engine.meta["pool_compactions"] > 0
        stack = build_stack(topo, "ecmp", seed=0)
        reference = FlowLevelSimulator(topo, stack.routing, selector=stack.selector,
                                       transport=stack.transport, seed=0).run(workload)
        assert reference.meta["events"] == engine.meta["events"]
        assert_records_identical(reference.records, engine.records)


# -------------------------------------------------------- metrics estimators
class TestP2Quantile:
    def test_exact_under_five_observations(self):
        est = P2Quantile(0.5)
        assert math.isnan(est.value())
        for v in (3.0, 1.0, 2.0):
            est.add(v)
        assert est.value() == np.percentile([3.0, 1.0, 2.0], 50)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_tracks_numpy_percentile(self, q):
        rng = np.random.default_rng(11)
        data = rng.lognormal(mean=0.0, sigma=1.0, size=20_000)
        est = P2Quantile(q)
        for v in data:
            est.add(float(v))
        exact = float(np.percentile(data, q * 100))
        assert est.value() == pytest.approx(exact, rel=0.08)

    def test_state_roundtrip_resumes_identically(self):
        rng = np.random.default_rng(12)
        data = rng.exponential(size=500)
        a = P2Quantile(0.9)
        for v in data[:250]:
            a.add(float(v))
        b = pickle.loads(pickle.dumps(a))
        for v in data[250:]:
            a.add(float(v))
            b.add(float(v))
        assert a.value() == b.value()
        assert vars(a) == vars(b)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestReservoirSample:
    def test_exact_under_capacity(self):
        res = ReservoirSample(16, np.random.default_rng(0))
        for v in (5.0, 1.0, 3.0):
            res.add(v)
        assert res.percentile(50.0) == 3.0
        assert res.mean() == pytest.approx(3.0)
        assert res.seen == 3

    def test_deterministic_given_rng(self):
        data = np.random.default_rng(1).exponential(size=2000)
        a = ReservoirSample(64, np.random.default_rng(2))
        b = ReservoirSample(64, np.random.default_rng(2))
        for v in data:
            a.add(float(v))
            b.add(float(v))
        assert a.items == b.items
        assert a.seen == b.seen == 2000
        assert len(a.items) == 64

    def test_state_roundtrip(self):
        res = ReservoirSample(8, np.random.default_rng(3))
        for v in range(20):
            res.add(float(v))
        clone = pickle.loads(pickle.dumps(res))
        assert clone.items == res.items
        assert clone.seen == res.seen
        for v in range(20, 60):     # the pickled RNG keeps replacements aligned
            res.add(float(v))
            clone.add(float(v))
        assert clone.items == res.items

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSample(0, np.random.default_rng(0))

