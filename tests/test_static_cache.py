"""Unit tests for the static-N baseline and its LRU policy."""

import pytest

from repro.core.cachenode import CapacityError
from repro.core.config import CacheConfig
from repro.core.lru import LRUTracker
from repro.core.static_cache import StaticCooperativeCache

REC = 100


def make_static(cloud, network, n=2, capacity=5 * REC, hash_mode="identity"):
    return StaticCooperativeCache(
        cloud=cloud, network=network,
        config=CacheConfig(ring_range=1 << 12, node_capacity_bytes=capacity,
                           hash_mode=hash_mode),
        n_nodes=n,
    )


class TestLRUTracker:
    def test_victim_is_least_recent(self):
        lru = LRUTracker()
        for k in (1, 2, 3):
            lru.touch(k)
        assert lru.victim() == 1
        lru.touch(1)
        assert lru.victim() == 2

    def test_pop_victim_removes(self):
        lru = LRUTracker()
        lru.touch(1)
        lru.touch(2)
        assert lru.pop_victim() == 1
        assert len(lru) == 1
        assert 1 not in lru

    def test_empty_victim_raises(self):
        with pytest.raises(KeyError):
            LRUTracker().victim()

    def test_discard_tolerates_missing(self):
        lru = LRUTracker()
        lru.discard(9)  # no raise
        lru.touch(1)
        lru.discard(1)
        assert len(lru) == 0


class TestPlacement:
    def test_mod_n_routing(self, cloud, network):
        cache = make_static(cloud, network, n=2)
        cache.put(4, "even", nbytes=REC)
        cache.put(5, "odd", nbytes=REC)
        assert len(cache.nodes[0]) == 1
        assert len(cache.nodes[1]) == 1

    def test_fixed_fleet(self, cloud, network):
        cache = make_static(cloud, network, n=4)
        for k in range(200):
            cache.put(k, "x", nbytes=REC)
        assert cache.node_count == 4

    def test_bad_node_count(self, cloud, network):
        with pytest.raises(ValueError):
            make_static(cloud, network, n=0)


class TestLRUEviction:
    def test_evicts_least_recent_on_overflow(self, cloud, network):
        cache = make_static(cloud, network, n=1, capacity=3 * REC)
        for k in (0, 1, 2):
            cache.put(k, f"v{k}", nbytes=REC)
        cache.get(0)  # 0 becomes most recent; 1 is now LRU
        cache.put(3, "v3", nbytes=REC)
        assert cache.get(1) is None
        assert cache.get(0) is not None
        assert cache.lru_evictions == 1

    def test_capacity_never_exceeded(self, cloud, network):
        cache = make_static(cloud, network, n=2, capacity=4 * REC)
        for k in range(100):
            cache.put(k, "x", nbytes=REC)
        for node in cache.nodes:
            assert node.used_bytes <= node.capacity_bytes
            node.check()

    def test_record_too_large_raises(self, cloud, network):
        cache = make_static(cloud, network, n=1, capacity=3 * REC)
        with pytest.raises(CapacityError):
            cache.put(1, "big", nbytes=4 * REC)

    def test_overwrite_refreshes(self, cloud, network):
        cache = make_static(cloud, network, n=1, capacity=3 * REC)
        cache.put(0, "a", nbytes=REC)
        cache.put(0, "b", nbytes=2 * REC)
        assert cache.get(0).value == "b"
        assert cache.used_bytes == 2 * REC

    def test_hits_and_misses(self, cloud, network):
        cache = make_static(cloud, network, n=2)
        assert cache.get(1) is None
        cache.put(1, "x", nbytes=REC)
        assert cache.get(1).value == "x"


class TestResizeHashDisruption:
    def test_resize_relocates_majority(self, cloud, network):
        """Sec. II-A's motivating example: mod-N rehash moves most keys."""
        cache = make_static(cloud, network, n=4, capacity=1000 * REC)
        keys = list(range(400))
        for k in keys:
            cache.put(k, "x", nbytes=REC)
        moved = cache.resize(5)
        # k mod 4 == k mod 5 only for a small fraction: expect ~80 % moved.
        assert moved / len(keys) > 0.6
        assert cache.node_count == 5
        for k in keys:
            assert cache.get(k) is not None

    def test_resize_down_preserves_what_fits(self, cloud, network):
        cache = make_static(cloud, network, n=4, capacity=1000 * REC)
        for k in range(100):
            cache.put(k, "x", nbytes=REC)
        cache.resize(2)
        assert cache.node_count == 2
        assert cache.record_count == 100

    def test_resize_same_size_is_noop(self, cloud, network):
        cache = make_static(cloud, network, n=3)
        assert cache.resize(3) == 0

    def test_consistent_hashing_moves_far_fewer(self, cloud, network, rng):
        """The paper's core Sec. II-A claim, quantified: growing the
        elastic ring by one node relocates only one bucket-interval of
        keys; growing mod-N relocates most of them."""
        from repro.core.ring import ConsistentHashRing

        keys = list(range(0, 4000, 7))
        ring = ConsistentHashRing(ring_range=1 << 12)
        ring.add_bucket((1 << 12) - 1, "n1")
        ring.add_bucket(1000, "n2")
        before = {k: ring.node_for_key(k) for k in keys}
        ring.add_bucket(2000, "n3")  # consistent-hash growth
        after = {k: ring.node_for_key(k) for k in keys}
        ring_moved = sum(before[k] != after[k] for k in keys) / len(keys)

        cache = make_static(cloud, network, n=2, capacity=10_000 * REC)
        for k in keys:
            cache.put(k, "x", nbytes=REC)
        mod_moved = cache.resize(3) / len(keys)

        assert ring_moved < 0.5 * mod_moved
