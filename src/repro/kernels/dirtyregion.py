"""Kernels of a topology with failed links.

When the fault schedule of :mod:`repro.sim.faults` drops or restores edges
mid-run, the surviving graph is an ordinary cached graph: it is keyed by the
fingerprint of its own edge set and filled lazily like any other
:class:`~repro.kernels.cache.GraphKernels` entry.  Equal failed sets therefore
share one entry, and restoring every edge lands on the topology's pristine entry.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.kernels.cache import GraphKernels, PathCache, global_cache
from repro.kernels.csr import Edge

__all__ = ["faulted_kernels"]


def faulted_kernels(topology, failed_edges: Iterable[Edge],
                    cache: Optional[PathCache] = None) -> GraphKernels:
    """Kernels of ``topology`` with ``failed_edges`` (any orientation) removed.

    With no failed edges this is exactly the topology's pristine cache entry, so a
    fail + restore cycle ends on the *same* cached object without any rebuild.
    """
    cache = cache if cache is not None else global_cache()
    return cache.mutated(topology.num_routers, topology.edges, failed_edges)
