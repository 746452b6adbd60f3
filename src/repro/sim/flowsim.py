"""Event-driven flow-level network simulation (the substitute for the paper's htsim/OMNeT++ runs).

The simulator resolves, over time, how concurrently active flows share link bandwidth:

* every flow follows one of its candidate router paths (as provided by a routing
  scheme: FatPaths layers, ECMP minimal paths, ...), plus its endpoint injection and
  ejection links;
* active flows receive max-min fair rates (ideal congestion control), recomputed at
  every arrival/completion event;
* flows may switch candidate paths at flowlet boundaries or when their path is
  congested, according to the configured :class:`repro.core.loadbalance.PathSelector`;
* per-flow completion times additionally include per-hop latency and the transport
  model's startup delay (slow start for TCP, a single pull RTT for NDP).  Congestion
  episodes are counted per flow (``FlowRecord.congestion_events``) but cost no time:
  no flow-level simulator charges ``TransportModel.congestion_delay``.

This captures the effects the paper's evaluation hinges on — path collisions on
low-diversity topologies, the benefit of non-minimal multipathing, flowlet adaptivity
and transport differences — at a scale a pure-Python reproduction can run.

Two implementations provide these semantics:

* :mod:`repro.sim.engine` — the vectorized structure-of-arrays engine, which
  :func:`simulate_workload` and the batched :func:`repro.sim.engine.simulate_many`
  run;
* :mod:`repro.sim.reference` — the original scalar event loop, preserved as the
  behavioural specification (``tests/sim/test_engine_equivalence.py`` pins the engine
  to it record-for-record).  To run it, construct :class:`FlowLevelSimulator`
  directly.

``FlowSimConfig(allocator=...)`` selects the engine's *rate allocator*: ``"full"``
(default, bit-identical to the reference) refills every active flow each event over
the persistent incidence, ``"incremental"`` refills only the incidence components
the event touched (:mod:`repro.sim.allocstate`), and ``"bottleneck"`` refills only
the region downstream of the event in the cached bottleneck structure
(:mod:`repro.sim.bottleneck`).  The last two are engine-only: the reference rejects
them.

Dynamic topologies: ``FlowSimConfig(faults=FaultSchedule(...))`` injects link/switch
failure and recovery events mid-run (:mod:`repro.sim.faults`; walkthrough in
``docs/resilience.md``) — displaced flows are re-placed through the path selector
with exact RNG-stream replay, and both implementations stay record-for-record
identical on faulted runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.loadbalance import PathSelector
from repro.core.transport import TransportModel
from repro.sim.engine import FlowEngine, SimCell, simulate_many
from repro.sim.faults import FaultEvent, FaultSchedule, sample_link_faults
from repro.sim.metrics import SimulationResult
from repro.sim.reference import FlowLevelSimulator
from repro.sim.simconfig import ALLOCATORS, FlowSimConfig, StreamConfig
from repro.sim.stream import StreamSimulator
from repro.topologies.base import Topology
from repro.traffic.flows import Workload

__all__ = [
    "ALLOCATORS",
    "FaultEvent",
    "FaultSchedule",
    "FlowEngine",
    "FlowLevelSimulator",
    "FlowSimConfig",
    "SimCell",
    "StreamConfig",
    "StreamSimulator",
    "sample_link_faults",
    "simulate_many",
    "simulate_workload",
]


def simulate_workload(topology: Topology, routing, workload: Workload,
                      selector: Optional[PathSelector] = None,
                      transport: Optional[TransportModel] = None,
                      config: Optional[FlowSimConfig] = None,
                      mapping: Optional[Sequence[int]] = None,
                      seed: int = 0, drop_warmup: bool = False) -> SimulationResult:
    """Run one workload on a :class:`~repro.sim.engine.FlowEngine`, optionally drop warm-up.

    ``config.allocator`` selects the engine's rate allocator (``"full"`` stays
    record-for-record identical to the scalar reference).
    """
    sim = FlowEngine(topology, routing, selector=selector, transport=transport,
                     config=config, seed=seed)
    result = sim.run(workload, mapping=mapping)
    if drop_warmup:
        result = result.warmup_filtered()
    return result
