"""Path counts against closed forms, at sizes beyond the tiny scale.

The equivalence suites pin the vectorized kernels to their scalar specs, so a
mistake both share would pass them.  These tests compare the kernels with
counts derived by hand from the topologies' structure instead:

* In a three-level fat tree of radix ``k`` (``k/2`` aggregation switches per
  pod, each with ``k/2`` core uplinks), two edge switches in different pods are
  joined by ``(k/2)^2`` shortest paths (one per aggregation switch of the source
  pod and core switch above it) and two in the same pod by ``k/2`` (one per
  aggregation switch).  Every such path leaves the source on one of its ``k/2``
  uplinks, so at most ``k/2`` of them are edge-disjoint, and ``k/2`` are.
* In a HyperX, routers that differ in ``d`` coordinates are ``d`` hops apart,
  and a shortest path fixes the ``d`` coordinates in some order: ``d!`` paths.
  The ``d`` paths that fix a different coordinate first and then the rest in
  cyclic order are edge-disjoint, and no more can be, since the source has
  only ``d`` links that lead closer to the target.
"""

import math

import numpy as np
import pytest

from repro.diversity.minimal_paths import minimal_path_counts
from repro.kernels import kernels_for
from repro.topologies.fattree import fat_tree
from repro.topologies.hyperx import hyperx


def _edge_pairs(radix):
    """Every ordered pair of distinct edge switches and whether they share a pod."""
    half = radix // 2
    edges = np.arange(radix * half)      # edge switches come first, pod-major
    src, dst = np.meshgrid(edges, edges, indexing="ij")
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return src, dst, src // half == dst // half


def _hamming(topology, side, dimensions):
    """Hamming distances between the coordinate vectors of all router pairs."""
    routers = np.arange(topology.num_routers)
    coords = np.stack([routers // side ** d % side for d in range(dimensions)], axis=1)
    return (coords[:, None, :] != coords[None, :, :]).sum(axis=2)


@pytest.mark.parametrize("radix", [4, 8, 12])
def test_fat_tree_shortest_path_counts(radix):
    topology = fat_tree(radix)
    counts = kernels_for(topology).shortest_path_counts()
    src, dst, same_pod = _edge_pairs(radix)
    half = radix // 2
    expected = np.where(same_pod, half, half * half)
    assert np.array_equal(counts[src, dst], expected)


@pytest.mark.parametrize("radix", [4, 8, 12])
def test_fat_tree_minimal_disjoint_counts(radix):
    topology = fat_tree(radix)
    src, dst, _ = _edge_pairs(radix)
    got = minimal_path_counts(topology, list(zip(src.tolist(), dst.tolist())))
    assert np.array_equal(got, np.full(src.size, radix // 2))


@pytest.mark.parametrize("dimensions,side", [(3, 4), (4, 3), (2, 7)])
def test_hyperx_shortest_path_counts(dimensions, side):
    topology = hyperx(dimensions, side)
    kernels = kernels_for(topology)
    hamming = _hamming(topology, side, dimensions)
    src, dst = np.nonzero(hamming)
    factorial = np.array([math.factorial(d) for d in range(dimensions + 1)])
    assert np.array_equal(kernels.distance_matrix(), hamming)
    assert np.array_equal(kernels.shortest_path_counts()[src, dst],
                          factorial[hamming[src, dst]])


@pytest.mark.parametrize("dimensions,side", [(3, 4), (4, 3), (2, 7)])
def test_hyperx_minimal_disjoint_counts(dimensions, side):
    topology = hyperx(dimensions, side)
    hamming = _hamming(topology, side, dimensions)
    src, dst = np.nonzero(hamming)
    got = minimal_path_counts(topology, list(zip(src.tolist(), dst.tolist())))
    assert np.array_equal(got, hamming[src, dst])
