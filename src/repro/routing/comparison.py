"""The paper's Table I: path-diversity support across routing schemes.

Each scheme is classified along the paper's seven path-diversity aspects:

* ``SP``  — supports arbitrary shortest paths
* ``NP``  — supports non-minimal paths
* ``SM``  — supports shortest and non-minimal paths *simultaneously*
* ``MP``  — supports multi-pathing between two hosts
* ``DP``  — explicitly considers disjoint paths
* ``ALB`` — adaptive load balancing
* ``AT``  — applicable to an arbitrary topology

Values use the paper's three levels: ``yes`` (full support), ``limited`` (partial,
e.g. only within spanning trees or only for resilience) and ``no``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, List

YES = "yes"
LIMITED = "limited"
NO = "no"

FEATURES = ("SP", "NP", "SM", "MP", "DP", "ALB", "AT")


@dataclass(frozen=True)
class SchemeFeatures:
    """One row of Table I."""

    name: str
    stack_layer: str
    SP: str
    NP: str
    SM: str
    MP: str
    DP: str
    ALB: str
    AT: str
    category: str = "routing architecture"

    def supports_all(self) -> bool:
        return all(getattr(self, f) == YES for f in FEATURES)

    def as_row(self) -> Dict[str, str]:
        return asdict(self)


ROUTING_SCHEME_TABLE: Dict[str, SchemeFeatures] = {
    scheme.name: scheme
    for scheme in [
        # -- simple routing protocols -------------------------------------------------
        SchemeFeatures("VLB", "L2-L3", NO, YES, NO, NO, NO, NO, YES,
                       category="simple protocol"),
        SchemeFeatures("SpanningTree", "L2", LIMITED, LIMITED, NO, NO, NO, NO, YES,
                       category="simple protocol"),
        SchemeFeatures("OSPF", "L2-L3", YES, NO, NO, NO, NO, NO, YES,
                       category="simple protocol"),
        SchemeFeatures("UGAL", "L2-L3", YES, YES, NO, NO, NO, YES, YES,
                       category="simple protocol"),
        SchemeFeatures("ECMP", "L2-L3", YES, NO, NO, YES, NO, NO, YES,
                       category="simple protocol"),
        # -- routing architectures ----------------------------------------------------
        SchemeFeatures("PortLand", "L2", YES, NO, NO, YES, NO, NO, NO),
        SchemeFeatures("DRILL", "L2", YES, NO, NO, YES, NO, YES, NO),
        SchemeFeatures("VL2", "L3", YES, NO, NO, YES, NO, LIMITED, NO),
        SchemeFeatures("BCube", "L2-L3", YES, NO, NO, YES, YES, NO, NO),
        SchemeFeatures("PAST", "L2", LIMITED, LIMITED, NO, NO, YES, NO, YES),
        SchemeFeatures("SPAIN", "L2", LIMITED, LIMITED, LIMITED, YES, YES, NO, YES),
        SchemeFeatures("MPTCP-ECMP", "L3-L4", YES, NO, NO, YES, NO, YES, YES),
        # -- path encoding schemes (complementary) ------------------------------------
        SchemeFeatures("XPath", "L3", YES, LIMITED, LIMITED, YES, YES, LIMITED, YES,
                       category="path encoding"),
        SchemeFeatures("SourceRouting", "L3", YES, LIMITED, LIMITED, NO, NO, NO, LIMITED,
                       category="path encoding"),
        # -- this work -----------------------------------------------------------------
        SchemeFeatures("FatPaths", "L2-L3", YES, YES, YES, YES, YES, YES, YES,
                       category="this work"),
    ]
}


def feature_table(sort_by_score: bool = False) -> List[Dict[str, str]]:
    """Table I as a list of row dictionaries."""
    rows = [scheme.as_row() for scheme in ROUTING_SCHEME_TABLE.values()]
    if sort_by_score:
        rows.sort(key=lambda r: sum(r[f] == YES for f in FEATURES), reverse=True)
    return rows


def only_fully_supporting_scheme() -> str:
    """The unique scheme supporting every aspect (the paper's claim: FatPaths)."""
    full = [name for name, scheme in ROUTING_SCHEME_TABLE.items() if scheme.supports_all()]
    if len(full) != 1:
        raise RuntimeError(f"expected exactly one fully-supporting scheme, found {full}")
    return full[0]
