"""Network simulators and analytic models (paper §VII).

* :mod:`repro.sim.fairshare` — max-min fair bandwidth allocation (water filling) over
  directed links, the core of the flow-level simulator.
* :mod:`repro.sim.flowsim` — the flow-level simulation entry point: flows arrive, get
  routed over candidate paths (FatPaths layers, ECMP paths, ...), share link bandwidth
  max-min fairly, and may switch paths at flowlet boundaries or on congestion.  It
  substitutes for the paper's htsim/OMNeT++ packet simulations and runs on the
  engine below.
* :mod:`repro.sim.engine` — the vectorized structure-of-arrays engine:
  pooled incidence, batched per-event sweeps, and the :func:`~repro.sim.engine.simulate_many`
  batched multi-cell API the simulation experiments run on.
* :mod:`repro.sim.allocstate` — the engine's persistent allocation state: the pooled
  flow/link incidence amended O(delta) per event, plus the opt-in dirty-component
  incremental allocator (``FlowSimConfig(allocator="incremental")``).
* :mod:`repro.sim.reference` — the original scalar event loop, preserved as the
  behavioural specification the engine is pinned against; tests run it by
  constructing :class:`FlowLevelSimulator`.
* :mod:`repro.sim.packetsim` — the packet-level simulation entry point: output queues,
  NDP-style payload trimming and receiver-driven pulls, exercising the purified
  transport mechanics directly.  Runs the vectorized :mod:`repro.sim.packetengine`,
  which is pinned against the scalar :mod:`repro.sim.packetsim_reference`; both
  raise the same error for a run that exceeds ``max_events``.
* :mod:`repro.sim.stream` — the streaming service layer over the flow engine:
  open-ended arrival streams with bounded memory (periodic slot/pool/bank
  compaction), checkpoint/restore, and windowed steady-state metrics
  (walkthrough in ``docs/streaming.md``).
* :mod:`repro.sim.queueing` — M/G/1 processor-sharing predictions used as the reference
  model in Figure 15.
* :mod:`repro.sim.metrics` — flow-completion-time / throughput summaries, plus the
  streaming P²/reservoir estimators the service layer feeds incrementally.
"""

from repro.sim.engine import FlowEngine, SimCell, simulate_many
from repro.sim.fairshare import max_min_fair_rates
from repro.sim.flowsim import (
    ALLOCATORS,
    FlowLevelSimulator,
    FlowSimConfig,
    StreamConfig,
    StreamSimulator,
    simulate_workload,
)
from repro.sim.metrics import FlowRecord, SimulationResult, summarize_flows
from repro.sim.packetsim import (
    PacketEngine,
    PacketLevelSimulator,
    PacketSimConfig,
    simulate_packets,
)
from repro.sim.queueing import mg1_ps_fct, predict_fct_distribution

__all__ = [
    "ALLOCATORS",
    "max_min_fair_rates",
    "FlowEngine",
    "FlowSimConfig",
    "FlowLevelSimulator",
    "SimCell",
    "StreamConfig",
    "StreamSimulator",
    "simulate_many",
    "simulate_workload",
    "FlowRecord",
    "SimulationResult",
    "summarize_flows",
    "PacketEngine",
    "PacketSimConfig",
    "PacketLevelSimulator",
    "simulate_packets",
    "mg1_ps_fct",
    "predict_fct_distribution",
]
