"""Shared configuration of the flow-level and packet-level simulators.

Both the scalar reference simulators (:mod:`repro.sim.reference`,
:mod:`repro.sim.packetsim_reference`) and the vectorized engines
(:mod:`repro.sim.engine`, :mod:`repro.sim.packetengine`) consume the same frozen
config dataclasses (:class:`FlowSimConfig`, :class:`PacketSimConfig`); keeping them
in their own module lets either implementation be imported without pulling in the
other (mirroring how :mod:`repro.kernels` separates the scalar specifications from
the vectorized kernels).

Every config validates itself on construction and raises a one-line
``ValueError`` naming the offending field.  Each check states what must hold
(``0 < value < inf``), so NaN, which fails every comparison, is rejected by the
same check as an out-of-range value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from repro.sim.faults import FaultSchedule

#: Rate-allocation strategies of the vectorized engine (see
#: :mod:`repro.sim.allocstate`): ``"full"`` refills every active flow each event
#: (bit-identical to the scalar reference), ``"incremental"`` refills only the
#: incidence components the event touched, ``"bottleneck"`` refills only the
#: region downstream of the event in the cached bottleneck structure — O(true
#: perturbation) even on single-component dense traffic (see
#: :mod:`repro.sim.bottleneck`).  Both refiltering allocators are max-min exact
#: but accumulate floats in a different order than the global loop, so they are
#: opt-in.  The scalar reference simulator implements only ``"full"``.
ALLOCATORS = ("full", "incremental", "bottleneck")


@dataclass(frozen=True)
class FlowSimConfig:
    """Simulator parameters (defaults follow the paper's §VII-A setup)."""

    link_rate_bps: float = 10e9          # 10G endpoint/link rate
    per_hop_latency: float = 1e-6        # 1 us fixed delay per link (INET-style)
    host_latency: float = 10e-6          # endpoint software latency (interrupt throttling)
    flowlet_bytes: float = 64 * 1024.0   # bytes between flowlet path re-evaluations
    congestion_rate_fraction: float = 0.5  # "congested" = rate below this fraction of line rate
    rate_epsilon: float = 1.0            # bytes/s resolution for completion times
    allocator: str = "full"   # engine rate allocator ("full" | "incremental" | "bottleneck")
    #: Optional link/switch failure-and-recovery schedule (see
    #: :mod:`repro.sim.faults`); ``None`` runs on a static topology.
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if not 0 < self.link_rate_bps < inf:
            raise ValueError("link_rate_bps must be positive and finite")
        if not 0 <= self.per_hop_latency < inf:
            raise ValueError("per_hop_latency must be >= 0 and finite")
        if not 0 <= self.host_latency < inf:
            raise ValueError("host_latency must be >= 0 and finite")
        if not self.flowlet_bytes > 0:
            # inf is allowed: it means "never switch at a flowlet boundary"
            raise ValueError("flowlet_bytes must be positive")
        if not 0 <= self.congestion_rate_fraction <= 1:
            raise ValueError("congestion_rate_fraction must lie in [0, 1]")
        if not 0 < self.rate_epsilon < inf:
            raise ValueError("rate_epsilon must be positive and finite")
        if self.allocator not in ALLOCATORS:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; available: {ALLOCATORS}")
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise TypeError("faults must be a repro.sim.faults.FaultSchedule or None")


@dataclass(frozen=True)
class StreamConfig:
    """Streaming-service parameters of :class:`repro.sim.stream.StreamSimulator`.

    Windows are anchored at simulated time 0 and ``window`` seconds wide; the
    first ``warmup_windows`` of them are excluded from the steady-state
    estimators.  Compaction is governed purely by slot counts (never wall
    clock), so two runs over the same stream — or a checkpoint-restored run —
    compact at identical event positions.
    """

    window: float = 0.05                 # metrics window width in simulated seconds
    warmup_windows: int = 2              # windows excluded from steady-state stats
    reservoir: int = 2048                # per-window FCT reservoir capacity
    keep_windows: int = 256              # closed WindowStats retained in memory
    record_ring: int = 1024              # completed FlowRecords retained (no sink)
    compact_factor: float = 2.0          # compact when retired > factor * live slots
    min_retired: int = 1024              # retired slots needed before compacting
    initial_slots: int = 1024            # initial slot-array capacity

    def __post_init__(self) -> None:
        if not 0 < self.window < inf:
            raise ValueError("window must be positive and finite")
        if not self.warmup_windows >= 0:
            raise ValueError("warmup_windows must be >= 0")
        for name in ("reservoir", "keep_windows", "record_ring",
                     "min_retired", "initial_slots"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.compact_factor < inf:
            raise ValueError("compact_factor must be positive and finite")


@dataclass(frozen=True)
class PacketSimConfig:
    """Packet-simulator parameters (defaults per §VII-A6)."""

    link_rate_bps: float = 10e9
    packet_bytes: int = 9000                  # jumbo frames
    header_bytes: int = 64
    queue_packets: int = 8                    # shallow buffers
    window_packets: int = 8                   # sender congestion window
    per_hop_latency: float = 1e-6
    host_latency: float = 1e-6
    flowlet_packets: int = 8                  # packets per flowlet before re-picking a path
    rto: float = 500e-6                       # retransmission timeout for non-NDP transports
    max_events: int = 5_000_000               # a run needing more events raises RuntimeError

    def __post_init__(self) -> None:
        if not self.packet_bytes > self.header_bytes:
            raise ValueError("packet_bytes must exceed header_bytes")
        for name in ("queue_packets", "window_packets", "flowlet_packets"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must hold at least one packet")
        for name in ("link_rate_bps", "rto", "per_hop_latency", "host_latency"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.max_events >= 1:
            raise ValueError("max_events must be >= 1")

    def event_budget_error(self) -> RuntimeError:
        """The error both packet simulators raise for a run needing more than
        ``max_events`` events."""
        return RuntimeError(f"packet run needs more than max_events={self.max_events} events")
