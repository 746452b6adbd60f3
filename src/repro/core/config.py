"""FatPaths configuration (layer count ``n``, layer density ``rho``, algorithm choices).

The paper's §V-B discusses the interplay of ``n`` and ``rho``:  more, sparser layers
expose more (longer) non-minimal paths but waste bandwidth; fewer, denser layers keep
paths short but may not break enough collisions.  The evaluation (Figures 12, 14, 16)
settles on roughly nine layers with ``rho ~ 0.7-0.8`` for bare-Ethernet runs and four
layers with ``rho ~ 0.6`` when TCP routing-table size matters.  :func:`recommended_config`
encodes those defaults per topology family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.topologies.base import Topology


@dataclass(frozen=True)
class FatPathsConfig:
    """Parameters of a FatPaths deployment.

    Attributes
    ----------
    num_layers:
        Total number of layers ``n`` (including the first, all-links layer).
    rho:
        Fraction of links kept in each sparsified layer (layer 1 always keeps all links).
    layer_algorithm:
        ``"random"`` for Listing 1 (random uniform edge sampling) or ``"interference"``
        for Listing 2 (path-overlap-minimising heuristic).
    min_extra_hops / max_extra_hops:
        Path length window (relative to the minimal distance) used by the
        interference-minimising constructor ("prefer paths one hop longer than minimal").
    seed:
        Seed for all randomized construction steps.
    """

    num_layers: int = 9
    rho: float = 0.75
    layer_algorithm: str = "random"
    min_extra_hops: int = 1
    max_extra_hops: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.layer_algorithm not in ("random", "interference"):
            raise ValueError("layer_algorithm must be 'random' or 'interference'")
        if self.min_extra_hops < 0 or self.max_extra_hops < self.min_extra_hops:
            raise ValueError("need 0 <= min_extra_hops <= max_extra_hops")

    def with_(self, **kwargs) -> "FatPathsConfig":
        """A copy with the given fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)


#: Layer configurations that the paper found to work well, per topology family and
#: deployment style ("ethernet" = bare Ethernet / htsim-like, n=9; "tcp" = full TCP
#: stacks where forwarding state is at a premium, n=4).
_RECOMMENDED: Dict[str, Dict[str, FatPathsConfig]] = {
    "ethernet": {
        "slimfly": FatPathsConfig(num_layers=9, rho=0.75),
        "dragonfly": FatPathsConfig(num_layers=9, rho=0.75),
        "jellyfish": FatPathsConfig(num_layers=9, rho=0.8),
        "xpander": FatPathsConfig(num_layers=9, rho=0.8),
        "hyperx": FatPathsConfig(num_layers=9, rho=0.9),
        "complete": FatPathsConfig(num_layers=16, rho=0.7),
        "fattree": FatPathsConfig(num_layers=1, rho=1.0),
        "default": FatPathsConfig(num_layers=9, rho=0.75),
    },
    "tcp": {
        "slimfly": FatPathsConfig(num_layers=4, rho=0.6),
        "dragonfly": FatPathsConfig(num_layers=4, rho=0.6),
        "jellyfish": FatPathsConfig(num_layers=4, rho=0.7),
        "xpander": FatPathsConfig(num_layers=4, rho=0.7),
        "hyperx": FatPathsConfig(num_layers=4, rho=0.9),
        "complete": FatPathsConfig(num_layers=4, rho=0.6),
        "fattree": FatPathsConfig(num_layers=1, rho=1.0),
        "default": FatPathsConfig(num_layers=4, rho=0.6),
    },
}


def recommended_config(topology: Topology, deployment: str = "ethernet",
                       seed: Optional[int] = None) -> FatPathsConfig:
    """The paper-recommended layer configuration for ``topology``.

    ``deployment`` selects between the bare-Ethernet defaults (n=9) and the TCP
    defaults (n=4, smaller routing tables).  Fat trees get a single (all-links) layer
    since their minimal-path diversity already suffices.
    """
    if deployment not in _RECOMMENDED:
        raise ValueError(f"deployment must be one of {sorted(_RECOMMENDED)}")
    family = str(topology.meta.get("family", "default"))
    table = _RECOMMENDED[deployment]
    config = table.get(family, table["default"])
    if seed is not None:
        config = config.with_(seed=seed)
    return config
