"""Adaptive round-robin retirement in the batched disjoint-path kernel.

The greedy search compacts finished items out of the working block between rounds;
these tests force that path (mixed-diversity batches, where low-count items retire
long before the high-diversity ones) and pin that retirement never changes results:
batched counts and paths equal item-at-a-time calls, which never trigger compaction
(a one-item block cannot halve).
"""

import numpy as np
import pytest

from repro.kernels.cache import kernels_for
from repro.kernels.disjoint import batch_disjoint_paths
from repro.topologies import SizeClass, build, slim_fly


def _mixed_diversity_items(topo, num_pairs=40, seed=7):
    """Pairs sampled so the batch mixes quickly-retiring and long-running items."""
    rng = np.random.default_rng(seed)
    n = topo.num_routers
    pairs = rng.integers(0, n, size=(num_pairs, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return pairs


@pytest.mark.parametrize("builder", [lambda: slim_fly(5), lambda: build("DF", SizeClass.TINY)])
def test_batch_equals_item_at_a_time(builder):
    topo = builder()
    csr = kernels_for(topo).csr
    pairs = _mixed_diversity_items(topo)
    for max_len in (2, 3, 4):
        batched, batched_paths = batch_disjoint_paths(
            csr, pairs, max_len, return_paths=True)
        for i, pair in enumerate(pairs):
            single, single_paths = batch_disjoint_paths(
                csr, pair.reshape(1, 2), max_len, return_paths=True)
            assert single[0] == batched[i]
            assert single_paths[0] == batched_paths[i]


def test_retirement_with_set_items_and_unreachable_padding():
    """Set-form items with wildly different relevant-set sizes force both the row
    compaction and the padding-width shrink; degenerate items (overlapping sets)
    must stay zero throughout."""
    topo = slim_fly(5)
    csr = kernels_for(topo).csr
    rng = np.random.default_rng(3)
    items = []
    for size in (1, 1, 2, 4, 1, 3, 1, 1):
        sources = rng.choice(topo.num_routers, size=size, replace=False)
        targets = rng.choice(topo.num_routers, size=size, replace=False)
        items.append((sources, targets))
    items.append(([0], [0]))          # source == target: counts zero, retires round 0
    counts, paths = batch_disjoint_paths(csr, items, 3, return_paths=True)
    assert counts[-1] == 0 and paths[-1] == []
    for i, item in enumerate(items):
        single = batch_disjoint_paths(csr, [item], 3)
        assert single[0] == counts[i]
