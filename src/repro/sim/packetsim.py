"""Packet-level simulation entry point: NDP-style purified transport (paper §III-C).

The packet simulator complements the flow-level model by exercising the *mechanisms*
of the purified transport directly, at packet granularity: output-queued links with
bounded queues, payload trimming into a priority header lane, receiver-driven
retransmits (NACKs) vs sender RTOs, a fixed ACK-clocked window, and per-flowlet path
selection with congestion-triggered layer changes.

Two implementations provide these semantics:

* :mod:`repro.sim.packetengine` — the vectorized structure-of-arrays engine, built
  on the flow engine's shared :class:`~repro.sim.engine.LinkSpace` and pooled
  :class:`~repro.sim.engine.CandidateBank`; :func:`simulate_packets` runs it;
* :mod:`repro.sim.packetsim_reference` — the original scalar event loop, preserved
  verbatim as the behavioural specification
  (``tests/sim/test_packetengine_equivalence.py`` pins the engine to it
  record-for-record, event trace included).  To run it, construct
  :class:`PacketLevelSimulator` directly.

Both raise the same ``RuntimeError`` for a run that needs more than
``PacketSimConfig.max_events`` events, and both count in ``meta["unfinished_flows"]``
the flows that never complete (see ``docs/experiments.md``).

This module also re-exports :class:`PacketSimConfig` and
:class:`PacketLevelSimulator` so existing imports keep working.
"""

from __future__ import annotations

from typing import Optional

from repro.core.loadbalance import PathSelector
from repro.core.transport import TransportModel
from repro.sim.metrics import SimulationResult
from repro.sim.packetengine import PacketEngine
from repro.sim.packetsim_reference import PacketLevelSimulator
from repro.sim.simconfig import PacketSimConfig
from repro.topologies.base import Topology
from repro.traffic.flows import Workload

__all__ = [
    "PacketEngine",
    "PacketLevelSimulator",
    "PacketSimConfig",
    "simulate_packets",
]


def simulate_packets(topology: Topology, routing, workload: Workload,
                     selector: Optional[PathSelector] = None,
                     transport: Optional[TransportModel] = None,
                     config: Optional[PacketSimConfig] = None,
                     seed: int = 0) -> SimulationResult:
    """Build a :class:`~repro.sim.packetengine.PacketEngine` and run one workload."""
    sim = PacketEngine(topology, routing, selector=selector, transport=transport,
                       config=config, seed=seed)
    return sim.run(workload)
