"""Randomized workload mapping (paper §III-D).

FatPaths optionally places communicating endpoints on routers chosen uniformly at
random, which spreads load over the whole network and exploits the rich inter-group
path diversity of low-diameter topologies.  A *mapping* is a permutation array: logical
endpoint ``e`` executes on physical endpoint ``mapping[e]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def identity_mapping(num_endpoints: int) -> np.ndarray:
    """Endpoints stay where the workload numbered them (locality-preserving / skewed)."""
    if num_endpoints < 1:
        raise ValueError("num_endpoints must be >= 1")
    return np.arange(num_endpoints, dtype=np.int64)


def random_mapping(num_endpoints: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """A uniformly random permutation of endpoints (the paper's randomized mapping)."""
    if num_endpoints < 1:
        raise ValueError("num_endpoints must be >= 1")
    rng = rng or np.random.default_rng(0)
    return rng.permutation(num_endpoints).astype(np.int64)


def is_valid_mapping(mapping: np.ndarray, num_endpoints: int) -> bool:
    """True if ``mapping`` is a permutation of ``0 .. num_endpoints-1``."""
    values = np.asarray(mapping)
    if values.shape != (num_endpoints,) or values.dtype == object:
        return False   # not one value per endpoint, or values that need not sort
    return bool(np.array_equal(np.sort(values), np.arange(num_endpoints)))
