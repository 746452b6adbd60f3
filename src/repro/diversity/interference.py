"""Path Interference (PI) — the paper's novel overlap metric (§IV-B2, Figure 8).

Two communicating router pairs ``(a, b)`` and ``(c, d)`` *interfere* at distance ``l``
when their combined count of disjoint paths is smaller than the sum of the individual
counts:

    I_ac,bd(l) = c_l({a,c},{b}) + c_l({a,c},{d}) - c_l({a,c},{b,d})

A positive value quantifies the bandwidth lost to shared links when both pairs
communicate concurrently.

:func:`path_interference` is the one-tuple definition (three set-form disjoint-path
counts).  :func:`interference_distribution` measures a whole sample in one batched
:func:`repro.kernels.disjoint.batch_disjoint_paths` call over all ``3 × samples``
items, with pruning bounds taken from cached single-router distance rows (the
distance to a router set is the elementwise minimum over its reachable rows);
``tests/diversity/test_interference_batch.py`` pins it to the definition.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.diversity.disjoint_paths import count_disjoint_paths_sets
from repro.kernels.cache import kernels_for
from repro.kernels.disjoint import batch_disjoint_paths
from repro.topologies.base import Topology


def path_interference(topology: Topology, a: int, b: int, c: int, d: int, max_len: int) -> int:
    """Path interference ``I_ac,bd`` at distance ``max_len`` (see module docstring)."""
    routers = {a, b, c, d}
    if len(routers) != 4:
        raise ValueError("a, b, c, d must be four distinct routers")
    to_b = count_disjoint_paths_sets(topology, [a, c], [b], max_len)
    to_d = count_disjoint_paths_sets(topology, [a, c], [d], max_len)
    combined = count_disjoint_paths_sets(topology, [a, c], [b, d], max_len)
    return int(to_b + to_d - combined)


def _nearest(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Distance to the nearer of two routers from their distance rows (-1 unreachable)."""
    return np.where(rows_a < 0, rows_b,
                    np.where(rows_b < 0, rows_a, np.minimum(rows_a, rows_b)))


def interference_distribution(topology: Topology, max_len: int, num_samples: int = 200,
                              rng: Optional[np.random.Generator] = None,
                              tuples: Optional[List[Tuple[int, int, int, int]]] = None) -> np.ndarray:
    """Sampled distribution of path interference at distance ``max_len`` (Figure 8).

    Router 4-tuples ``(a, b, c, d)`` are sampled uniformly at random (all four routers
    distinct) from the endpoint-hosting routers, unless explicit ``tuples`` are provided.
    Every tuple is validated before any kernel work; the whole sample then runs as one
    batched kernel call, equal tuple for tuple to :func:`path_interference`.
    """
    rng = rng or np.random.default_rng(0)
    candidates = np.asarray(topology.endpoint_routers)
    if candidates.size < 4:
        raise ValueError("need at least four endpoint-hosting routers to measure interference")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if tuples is not None:
        samples = np.asarray(list(tuples), dtype=np.int64).reshape(-1, 4)
        if ((samples < 0) | (samples >= topology.num_routers)).any():
            raise ValueError(f"tuples: router index out of range [0, {topology.num_routers})")
        ordered = np.sort(samples, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("a, b, c, d must be four distinct routers")
    else:
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        samples = np.asarray([rng.choice(candidates, size=4, replace=False)
                              for _ in range(num_samples)], dtype=np.int64)
    if samples.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    a, b, c, d = samples.T
    kernels = kernels_for(topology)
    rows_a, rows_b = kernels.pair_distance_rows(np.stack([a, b], axis=1))
    rows_c, rows_d = kernels.pair_distance_rows(np.stack([c, d], axis=1))
    # items: c({a,c},{b}) for every tuple, then c({a,c},{d}), then c({a,c},{b,d})
    sources = [[s, t] for s, t in zip(a, c)] * 3
    targets = [[u] for u in b] + [[v] for v in d] + [[u, v] for u, v in zip(b, d)]
    counts = batch_disjoint_paths(
        kernels.csr, list(zip(sources, targets)), max_len,
        bounds=np.concatenate([rows_b, rows_d, _nearest(rows_b, rows_d)]),
        source_bounds=np.tile(_nearest(rows_a, rows_c), (3, 1)))
    to_b, to_d, combined = counts.reshape(3, -1)
    return to_b + to_d - combined
