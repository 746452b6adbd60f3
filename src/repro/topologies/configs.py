"""Comparable-cost topology configurations (paper §II-B and §VII-A).

The paper compares topologies in *size classes* — small (N ~ 1k), medium (N ~ 10k),
large (N ~ 100k) — picking, for each class, configurations that use similar amounts of
hardware (similar N, similar edge density) so that construction costs match.  The
concentration rule is ``p = ceil(k'/D)`` which (for random uniform traffic) maximises
throughput while minimising cost.

This module provides

* :func:`default_concentration` — the ``p = ceil(k'/D)`` rule,
* per-class parameter choices for every topology (mirroring Table IV / Table V),
* :func:`build` — construct a topology by short name ("SF", "DF", ...) and size class,
* :func:`comparable_configurations` — all topologies of one class, optionally with their
  equivalent Jellyfish instances.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.topologies.base import Topology
from repro.topologies.complete import complete_graph
from repro.topologies.dragonfly import dragonfly
from repro.topologies.fattree import fat_tree
from repro.topologies.hyperx import hyperx
from repro.topologies.jellyfish import equivalent_jellyfish
from repro.topologies.slimfly import slim_fly
from repro.topologies.xpander import xpander


class SizeClass(str, Enum):
    """Paper size classes; ``TINY`` is an extra class for fast tests/examples."""

    TINY = "tiny"        # N ~ 100          (not in the paper; unit tests, examples)
    SMALL = "small"      # N ~ 1,000
    MEDIUM = "medium"    # N ~ 10,000
    LARGE = "large"      # N ~ 100,000


def default_concentration(network_radix: int, diameter: int) -> int:
    """The paper's concentration rule ``p = ceil(k' / D)``."""
    if diameter < 1:
        raise ValueError("diameter must be >= 1")
    return max(1, math.ceil(network_radix / diameter))


# Parameter choices per class.  Chosen so that, within a class, endpoint counts are
# within roughly +-30% of each other (the paper allows ~10%, which is not always
# attainable with small parameter spaces; the tab05 scenario reports the actual Ns).
_SPECS: Dict[Tuple[str, SizeClass], Dict[str, int]] = {
    # ---- tiny (N ~ 100-200): for tests and quick examples -------------------
    ("SF", SizeClass.TINY): {"q": 5},
    ("DF", SizeClass.TINY): {"p": 3},
    ("HX2", SizeClass.TINY): {"dimensions": 2, "side": 6},
    ("HX3", SizeClass.TINY): {"dimensions": 3, "side": 4},
    ("XP", SizeClass.TINY): {"network_radix": 8},
    ("FT3", SizeClass.TINY): {"radix": 8, "oversubscription": 2},
    ("CLIQUE", SizeClass.TINY): {"num_routers": 16},
    # ---- small (N ~ 1,000) ---------------------------------------------------
    ("SF", SizeClass.SMALL): {"q": 9},              # N = 1,134
    ("DF", SizeClass.SMALL): {"p": 4},              # N = 1,056
    ("HX2", SizeClass.SMALL): {"dimensions": 2, "side": 10},   # N = 900
    ("HX3", SizeClass.SMALL): {"dimensions": 3, "side": 6},    # N = 1,080
    ("XP", SizeClass.SMALL): {"network_radix": 12},             # N = 936
    ("FT3", SizeClass.SMALL): {"radix": 12, "oversubscription": 2},  # N = 864
    ("CLIQUE", SizeClass.SMALL): {"num_routers": 32},            # N = 992
    # ---- medium (N ~ 10,000): the paper's headline class --------------------
    ("SF", SizeClass.MEDIUM): {"q": 19},          # Nr=722, k'=29   (Table IV)
    ("DF", SizeClass.MEDIUM): {"p": 8},           # Nr=2064, k'=23  (Table IV)
    ("HX2", SizeClass.MEDIUM): {"dimensions": 2, "side": 24},
    ("HX3", SizeClass.MEDIUM): {"dimensions": 3, "side": 11},  # Nr=1331, k'=30 (Table IV)
    ("XP", SizeClass.MEDIUM): {"network_radix": 32},           # Nr=1056, k'=32 (Table IV)
    ("FT3", SizeClass.MEDIUM): {"radix": 28, "oversubscription": 2},  # N = 10,976
    ("CLIQUE", SizeClass.MEDIUM): {"num_routers": 101},        # Table IV clique
    # ---- large (N ~ 100,000) -------------------------------------------------
    ("SF", SizeClass.LARGE): {"q": 41},                           # N = 104,222
    ("DF", SizeClass.LARGE): {"p": 12},                           # N = 83,232
    ("HX2", SizeClass.LARGE): {"dimensions": 2, "side": 44},      # N = 83,248
    ("HX3", SizeClass.LARGE): {"dimensions": 3, "side": 18},      # N = 99,144
    ("XP", SizeClass.LARGE): {"network_radix": 56},               # N = 89,376
    ("FT3", SizeClass.LARGE): {"radix": 58, "oversubscription": 2},  # N = 97,556
    ("CLIQUE", SizeClass.LARGE): {"num_routers": 317},            # N = 100,172
}

#: Topologies evaluated throughout the paper, in presentation order.
PAPER_TOPOLOGIES: Tuple[str, ...] = ("SF", "DF", "HX3", "XP", "FT3")


def available_names() -> List[str]:
    """Short names accepted by :func:`build`."""
    return sorted({name for name, _ in _SPECS})


def build(short_name: str, size_class: SizeClass = SizeClass.MEDIUM,
          seed: Optional[int] = 0) -> Topology:
    """Construct a topology by short name and size class.

    Short names: ``SF``, ``DF``, ``HX2``, ``HX3``, ``XP``, ``FT3``, ``CLIQUE``.
    Concentration follows the per-topology defaults described in the paper's
    Appendix A (which coincide with ``p = ceil(k'/D)`` for the diameter-2/3 networks).
    """
    size_class = SizeClass(size_class)
    key = (short_name.upper(), size_class)
    if key not in _SPECS:
        raise KeyError(f"unknown topology/class combination {key}; "
                       f"available topologies: {available_names()}")
    params = dict(_SPECS[key])
    name = short_name.upper()
    if name == "SF":
        return slim_fly(**params)
    if name == "DF":
        return dragonfly(**params)
    if name in ("HX2", "HX3"):
        return hyperx(**params)
    if name == "XP":
        return xpander(**params, seed=seed)
    if name == "FT3":
        return fat_tree(**params)
    if name == "CLIQUE":
        return complete_graph(**params)
    raise KeyError(name)  # pragma: no cover - guarded above


def comparable_configurations(size_class: SizeClass = SizeClass.MEDIUM,
                              topologies: Optional[List[str]] = None,
                              include_jellyfish: bool = False,
                              seed: int = 0) -> Dict[str, Topology]:
    """All paper topologies of one size class, keyed by short name.

    With ``include_jellyfish=True`` each deterministic topology X additionally gets an
    equivalent Jellyfish entry ``"X-JF"`` built from identical Nr, k', p.
    """
    names = topologies or list(PAPER_TOPOLOGIES)
    out: Dict[str, Topology] = {}
    for name in names:
        topo = build(name, size_class, seed=seed)
        out[name] = topo
        if include_jellyfish and name != "CLIQUE":
            out[f"{name}-JF"] = equivalent_jellyfish(topo, seed=seed + 1)
    return out


def summary_row(topology: Topology) -> Dict[str, object]:
    """One row of the paper's Table V-style parameter summary."""
    return {
        "name": topology.name,
        "Nr": topology.num_routers,
        "N": topology.num_endpoints,
        "k_prime": topology.network_radix,
        "p": topology.concentration,
        "k": topology.router_radix,
        "diameter_hint": topology.diameter_hint,
        "edges": topology.num_edges,
        "edge_density": round(topology.edge_density(), 3),
    }
