"""PathCache eviction edge cases.

The cache is doubly bounded — by entry count and by retained bytes — and entries
*grow after insertion* as distance matrices, path counts and next-hop tables are
lazily computed.  These tests pin the awkward corners: byte budgets smaller than a
single entry, growth-triggered eviction on the hit path, and layer-key reuse across
distinct ``Topology`` objects that share a graph fingerprint.
"""

import pytest

from repro.core.layers import Layer
from repro.kernels import PathCache, layer_kernels
from repro.kernels.cache import layer_fingerprint
from repro.topologies.base import Topology


def ring_edges(n, shift=0):
    return [((i + shift) % n, (i + 1 + shift) % n) for i in range(n)]


class TestByteBudgetSmallerThanOneEntry:
    def test_single_oversized_entry_is_retained(self):
        cache = PathCache(maxsize=8, max_bytes=1)
        kern = cache.kernels(16, ring_edges(16))
        kern.distance_matrix()  # grow far beyond the byte budget
        assert kern.retained_nbytes() > cache.max_bytes
        # the most recently used entry is never evicted: its caller holds it
        assert len(cache) == 1
        assert cache.kernels(16, ring_edges(16)) is kern

    def test_oversized_entries_evict_down_to_most_recent(self):
        cache = PathCache(maxsize=8, max_bytes=1)
        first = cache.kernels(12, ring_edges(12))
        first.distance_matrix()
        second = cache.kernels(13, ring_edges(13))
        second.distance_matrix()
        third = cache.kernels(14, ring_edges(14))
        # every insertion re-checks the budget: only the newest entry survives
        assert len(cache) == 1
        assert cache.kernels(14, ring_edges(14)) is third
        assert cache.stats()["hits"] == 1

    def test_growth_after_insertion_evicts_on_hit_path(self):
        """Entries that grow *after* insertion are reaped by the periodic
        budget re-check on cache hits (every 64 hits, keeping lookups O(1))."""
        cache = PathCache(maxsize=8, max_bytes=4096)
        small = cache.kernels(4, ring_edges(4))
        big = cache.kernels(32, ring_edges(32))
        assert len(cache) == 2
        big.distance_matrix()  # now far over budget, but no insertion happens
        assert big.retained_nbytes() > cache.max_bytes
        for _ in range(64):  # hits eventually trigger the periodic re-check
            cache.kernels(32, ring_edges(32))
        assert len(cache) == 1  # the LRU 'small' entry was evicted, MRU kept
        assert cache.kernels(32, ring_edges(32)) is big
        assert small.fingerprint not in cache._entries

    def test_zero_budgets_rejected(self):
        with pytest.raises(ValueError):
            PathCache(max_bytes=0)
        with pytest.raises(ValueError):
            PathCache(maxsize=0)


class TestLayerKeyReuseAcrossTopologies:
    def make_twins(self):
        """Two Topology objects over the same graph (equal fingerprints)."""
        edges = ring_edges(8)
        t1 = Topology("alpha", 8, list(edges), 1)
        t2 = Topology("beta", 8, list(reversed(edges)), 2)  # different metadata
        assert t1.fingerprint() == t2.fingerprint()
        return t1, t2

    def test_same_layer_same_edges_shares_one_entry(self):
        t1, t2 = self.make_twins()
        layer = Layer(index=1, edges=frozenset([(0, 1), (2, 3), (4, 5)]))
        k1 = layer_kernels(t1, layer)
        k2 = layer_kernels(t2, layer)
        assert k1 is k2  # identical fingerprints + layer keys => one computation

    def test_same_index_different_edges_never_collide(self):
        t1, t2 = self.make_twins()
        a = Layer(index=1, edges=frozenset([(0, 1), (2, 3)]))
        b = Layer(index=1, edges=frozenset([(0, 1), (4, 5)]))
        assert layer_kernels(t1, a) is not layer_kernels(t2, b)
        assert layer_fingerprint(t1, 1, sorted(a.edges)) != \
            layer_fingerprint(t2, 1, sorted(b.edges))

    def test_different_index_same_edges_never_collide(self):
        t1, _ = self.make_twins()
        edges = frozenset([(0, 1), (2, 3)])
        k1 = layer_kernels(t1, Layer(index=1, edges=edges))
        k2 = layer_kernels(t1, Layer(index=2, edges=edges))
        assert k1 is not k2

    def test_layer_reuse_survives_cache_pressure_on_other_entries(self):
        """Evicting unrelated grown entries must not corrupt live layer entries."""
        cache = PathCache(maxsize=4, max_bytes=64 << 10)
        base = cache.kernels(8, ring_edges(8))
        layer_key = layer_fingerprint(
            Topology("t", 8, ring_edges(8), 1), 1, ring_edges(8, shift=1))
        layer_entry = cache.kernels(8, ring_edges(8, shift=1), fingerprint=layer_key)
        table = layer_entry.next_hop_table((0, 1))
        for n in (24, 25, 26, 27):  # churn the cache with growing entries
            cache.kernels(n, ring_edges(n)).distance_matrix()
        fresh = cache.kernels(8, ring_edges(8, shift=1), fingerprint=layer_key)
        # whether or not the entry survived eviction, results stay deterministic
        assert (fresh.next_hop_table((0, 1)) == table).all()
        assert (base.distance_matrix() >= -1).all()

    def test_next_hop_tables_count_towards_retained_bytes(self):
        cache = PathCache()
        kern = cache.kernels(8, ring_edges(8))
        before = kern.retained_nbytes()
        table = kern.next_hop_table(7)
        assert kern.retained_nbytes() >= before + table.nbytes
        with pytest.raises(ValueError):
            table[0, 0] = 3  # read-only cache view

    def test_next_hop_table_seed_keying(self):
        cache = PathCache()
        kern = cache.kernels(10, ring_edges(10))
        assert kern.next_hop_table(0) is kern.next_hop_table(0)
        assert kern.next_hop_table((0, 1)) is kern.next_hop_table((0, 1))
        # int and 1-tuple seeds are the same SeedSequence entropy => same key
        assert kern.next_hop_table((0,)) is kern.next_hop_table(0)
        assert kern.next_hop_table(1) is not kern.next_hop_table(2)

    def test_next_hop_tables_bounded_per_graph(self):
        """A multi-seed sweep must not grow one table per seed without limit."""
        from repro.kernels.cache import _MAX_NEXT_HOP_TABLES

        cache = PathCache()
        kern = cache.kernels(10, ring_edges(10))
        for seed in range(3 * _MAX_NEXT_HOP_TABLES):
            kern.next_hop_table(seed)
        assert len(kern._next_hops) <= _MAX_NEXT_HOP_TABLES
        # the newest seed survives; results stay deterministic regardless
        assert kern.next_hop_table(3 * _MAX_NEXT_HOP_TABLES - 1) is \
            kern.next_hop_table(3 * _MAX_NEXT_HOP_TABLES - 1)

    def test_unkeyable_seeds_are_rejected(self):
        """Tables are keyed by the seed's int values: ``None`` (OS entropy) and a
        ``SeedSequence`` have none, so they raise and cache nothing."""
        import numpy as np

        cache = PathCache()
        kern = cache.kernels(10, ring_edges(10))
        for seed in (None, np.random.SeedSequence(42)):
            with pytest.raises(TypeError):
                kern.next_hop_table(seed)
        assert len(kern._next_hops) == 0
