"""Transport-layer models (paper §III-C and §VIII).

The flow-level simulators in :mod:`repro.sim` resolve bandwidth sharing and path
choice, and charge each flow an analytic transport startup cost:

* **Purified / NDP-like transport** — senders start at line rate (no probing), headers
  are never dropped, and retransmitted/trimmed packets are prioritised, so the only
  startup cost is a single RTT of receiver-driven pull latency.
* **TCP** — slow start costs ``~log2`` RTTs before the window covers the
  bandwidth-delay product.
* **DCTCP** — TCP with ECN: the same slow start.

The congestion reaction is *not* charged in flow-level runs: the simulators count
congestion episodes per flow but never call :meth:`TransportModel.congestion_delay`,
so ``congestion_rtt_penalty`` and ``ecn`` change no flow-level record, and TCP and
DCTCP complete identically there.  Only the packet-level simulator models loss
recovery, by mechanism (a TCP tail drop waits for the retransmission timeout, NDP
trims payloads and NACKs).

A :class:`TransportModel` is a small value object consumed by the simulators; the
factory functions encode the three stacks above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TransportModel:
    """Analytic transport parameters used by the flow-level simulator.

    Attributes
    ----------
    name:
        Identifier ("ndp", "tcp", "dctcp").
    line_rate_start:
        True if the first RTT is sent at line rate (no slow start).
    initial_window_bytes:
        Slow-start initial congestion window (ignored when ``line_rate_start``).
    slow_start_doubling:
        True if the window doubles each RTT until reaching the BDP.
    congestion_rtt_penalty:
        Extra RTTs per congestion event (timeouts / fast retransmits for TCP, ~0 for
        NDP where trimming preserves headers), as priced by
        :meth:`congestion_delay`; no simulator charges it yet.
    header_preserving:
        True if packet trimming keeps headers (NDP) — used by the packet simulator.
    ecn:
        True if ECN-style early congestion feedback is available (DCTCP / FatPaths
        layer-switch signal); no simulator reads it yet.
    """

    name: str
    line_rate_start: bool
    initial_window_bytes: float
    slow_start_doubling: bool
    congestion_rtt_penalty: float
    header_preserving: bool
    ecn: bool

    def startup_rtts(self, flow_bytes: float, bandwidth_delay_product: float) -> float:
        """Number of RTTs spent ramping up before the flow runs at full rate.

        For line-rate-start transports this is the single request/grant RTT.  For
        window-based transports it is the number of doublings needed for the window to
        reach min(flow size, BDP), as in the standard slow-start completion model.
        """
        if flow_bytes <= 0:
            raise ValueError("flow_bytes must be positive")
        if self.line_rate_start or not self.slow_start_doubling:
            return 1.0
        target = min(flow_bytes, max(bandwidth_delay_product, self.initial_window_bytes))
        doublings = math.ceil(math.log2(max(target / self.initial_window_bytes, 1.0)))
        return 1.0 + doublings

    def startup_delay(self, flow_bytes: float, rtt_seconds: float, link_rate_bps: float) -> float:
        """Absolute startup latency in seconds for a flow of ``flow_bytes``."""
        bdp = link_rate_bps / 8.0 * rtt_seconds
        return self.startup_rtts(flow_bytes, bdp) * rtt_seconds

    def congestion_delay(self, congestion_events: float, rtt_seconds: float) -> float:
        """Extra completion delay caused by congestion events (loss/ECN reactions)."""
        return self.congestion_rtt_penalty * congestion_events * rtt_seconds


def ndp_transport() -> TransportModel:
    """The paper's purified transport (NDP-like receiver-driven protocol)."""
    return TransportModel(
        name="ndp",
        line_rate_start=True,
        initial_window_bytes=8 * 9000.0,   # 8 jumbo frames, as in §VII-A6
        slow_start_doubling=False,
        congestion_rtt_penalty=0.25,
        header_preserving=True,
        ecn=False,
    )


def tcp_transport(initial_window_bytes: float = 10 * 1460.0) -> TransportModel:
    """Standard TCP (Reno-style slow start, loss-based congestion reaction)."""
    return TransportModel(
        name="tcp",
        line_rate_start=False,
        initial_window_bytes=initial_window_bytes,
        slow_start_doubling=True,
        congestion_rtt_penalty=4.0,
        header_preserving=False,
        ecn=False,
    )


def dctcp_transport(initial_window_bytes: float = 10 * 1460.0) -> TransportModel:
    """DCTCP: TCP with ECN-based, much gentler congestion reaction."""
    return TransportModel(
        name="dctcp",
        line_rate_start=False,
        initial_window_bytes=initial_window_bytes,
        slow_start_doubling=True,
        congestion_rtt_penalty=1.0,
        header_preserving=False,
        ecn=True,
    )
