"""The FatPaths routing architecture (paper §III and §V).

* :mod:`repro.core.config` — configuration (number of layers ``n``, layer density
  ``rho``, construction algorithm, transport and load-balancing choices).
* :mod:`repro.core.layers` — layer construction: random uniform edge sampling
  (Listing 1) and the interference-minimising heuristic (Listing 2).
* :mod:`repro.core.forwarding` — per-layer forwarding functions / tables (Listing 3,
  Appendix C.A).
* :mod:`repro.core.fatpaths` — the :class:`FatPathsRouting` facade that builds layers +
  tables for a topology and exposes multi-path routing to the simulators and LPs.
* :mod:`repro.core.loadbalance` — flowlet switching, LetFlow, ECMP hashing and
  oblivious spraying path selectors.
* :mod:`repro.core.transport` — transport models: purified (NDP-like), TCP, DCTCP.
* :mod:`repro.core.mapping` — randomized workload mapping.
"""

from repro.core.config import FatPathsConfig, recommended_config
from repro.core.fatpaths import FatPathsRouting
from repro.core.forwarding import ForwardingTables, build_forwarding_tables
from repro.core.layers import Layer, LayerSet, build_layers
from repro.core.loadbalance import (
    EcmpSelector,
    FlowletSelector,
    PacketSpraySelector,
    PathSelector,
)
from repro.core.mapping import identity_mapping, random_mapping
from repro.core.transport import TransportModel, ndp_transport, tcp_transport, dctcp_transport

__all__ = [
    "FatPathsConfig",
    "recommended_config",
    "FatPathsRouting",
    "ForwardingTables",
    "build_forwarding_tables",
    "Layer",
    "LayerSet",
    "build_layers",
    "EcmpSelector",
    "FlowletSelector",
    "PacketSpraySelector",
    "PathSelector",
    "identity_mapping",
    "random_mapping",
    "TransportModel",
    "ndp_transport",
    "tcp_transport",
    "dctcp_transport",
]
