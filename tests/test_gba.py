"""Unit tests for Greedy Bucket Allocation (Algorithms 1 & 2)."""

import pytest

from repro.btree.store import NodeStore
from repro.core.cachenode import CapacityError
from repro.core.gba import fullest_bucket
from repro.core.ring import ConsistentHashRing, RingError
from tests.conftest import make_cache

REC = 100  # bytes per test record


def fill(cache, keys, nbytes=REC):
    for k in keys:
        cache.put(k, f"v{k}", nbytes=nbytes)


class TestDirectInsert:
    def test_simple_put_get(self, cloud, network):
        cache = make_cache(cloud, network)
        cache.put(7, "seven", nbytes=REC)
        assert cache.get(7).value == "seven"
        assert cache.get(8) is None
        assert cache.node_count == 1

    def test_no_split_under_capacity(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=40 * REC)
        fill(cache, range(40))
        assert cache.node_count == 1
        assert len(cache.gba.split_events) == 0
        cache.check_integrity()

    def test_refresh_same_key_does_not_grow(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        for _ in range(50):
            cache.put(3, "x", nbytes=REC)
        assert cache.record_count == 1
        assert cache.used_bytes == REC
        cache.check_integrity()

    def test_refresh_with_different_size(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        cache.put(3, "small", nbytes=REC)
        cache.put(3, "bigger", nbytes=3 * REC)
        assert cache.used_bytes == 3 * REC
        cache.check_integrity()


class TestOverflowSplit:
    def test_overflow_triggers_split(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(11))
        assert cache.node_count == 2
        assert len(cache.gba.split_events) == 1
        assert cache.record_count == 11
        cache.check_integrity()

    def test_split_moves_about_half(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(11))
        event = cache.gba.split_events[0]
        assert event.records_moved == 5  # ceil(10/2)

    def test_all_records_remain_reachable_after_splits(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(100))
        for k in range(100):
            assert cache.get(k) is not None, f"lost key {k}"
        cache.check_integrity()

    def test_clock_advances_on_split(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        t0 = cloud.clock.now
        fill(cache, range(11))
        assert cloud.clock.now > t0  # allocation + migration time

    def test_first_split_allocates(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(11))
        assert cache.gba.split_events[0].allocated
        assert cache.gba.split_events[0].allocation_s >= cloud.boot_min_s

    def test_greedy_reuses_before_allocating(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        # Force a split to create node 2 with ~5 records (room for ~5 more).
        fill(cache, range(11))
        nodes_after_first = cache.node_count
        # Keep inserting into the still-fuller node's range: greedy should
        # route at least one subsequent migration to the emptier node.
        fill(cache, range(11, 16))
        reused = [e for e in cache.gba.split_events if not e.allocated]
        assert cache.node_count >= nodes_after_first
        assert cache.record_count == 16
        cache.check_integrity()
        # Greedy reuse must occur before the fleet grows unboundedly.
        fill(cache, range(16, 30))
        assert any(not e.allocated for e in cache.gba.split_events) or reused

    def test_non_greedy_always_allocates(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC, greedy=False)
        fill(cache, range(40))
        assert all(e.allocated for e in cache.gba.split_events)
        cache.check_integrity()

    def test_greedy_allocates_fewer_nodes_than_always_alloc(self, clock, rng, network):
        from repro.cloud.provider import SimulatedCloud

        results = {}
        for greedy in (True, False):
            import numpy as np
            cloud = SimulatedCloud(clock=type(clock)(), rng=np.random.default_rng(0),
                                   max_nodes=64)
            cache = make_cache(cloud, network, capacity_bytes=10 * REC,
                               greedy=greedy)
            fill(cache, range(60))
            results[greedy] = cache.node_count
            cache.check_integrity()
        assert results[True] <= results[False]

    def test_degenerate_reassign_ping_pong_regression(self, cloud, network):
        """Hypothesis-found cycle: with single-record buckets on nodes at
        exactly capacity-minus-one, a degenerate whole-bucket reassign
        used to bounce the full bucket between two nodes that could hold
        the bucket but not the pending insert.  The destination check now
        requires room for the pending record on degenerate reassigns."""
        cache = make_cache(cloud, network, capacity_bytes=4 * REC,
                           ring_range=1 << 12)
        for k in [4, 5, 6, 12, 13, 14, 11, 3, 9, 10, 8, 2, 7, 1, 0]:
            cache.put(k, f"v{k}", nbytes=REC)
        cache.check_integrity()
        for k in range(15):
            assert cache.get(k) is not None

    def test_record_larger_than_capacity_raises(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=5 * REC)
        with pytest.raises(CapacityError):
            cache.put(1, "huge", nbytes=6 * REC)

    def test_split_event_bookkeeping(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(11))
        e = cache.gba.split_events[0]
        assert e.bytes_moved == e.records_moved * REC
        assert e.overhead_s == pytest.approx(e.allocation_s + e.migration_s)
        assert e.src_id != e.dest_id

    def test_bucket_structure_grows(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(50))
        stats = cache.stats()
        assert stats["buckets"] >= stats["nodes"]


class TestHashModes:
    def test_splitmix_mode_end_to_end(self, cloud, network):
        from repro.core.config import CacheConfig
        from repro.core.elastic import ElasticCooperativeCache

        cache = ElasticCooperativeCache(
            cloud=cloud, network=network,
            config=CacheConfig(ring_range=1 << 12, hash_mode="splitmix",
                               node_capacity_bytes=10 * REC),
        )
        fill(cache, range(80))
        for k in range(80):
            assert cache.get(k) is not None
        cache.check_integrity()


class TestEvictKeys:
    def test_evict_existing(self, cloud, network):
        cache = make_cache(cloud, network)
        fill(cache, range(10))
        assert cache.evict_keys([3, 5]) == 2
        assert cache.get(3) is None
        assert cache.record_count == 8
        cache.check_integrity()

    def test_evict_missing_is_noop(self, cloud, network):
        cache = make_cache(cloud, network)
        fill(cache, range(3))
        assert cache.evict_keys([99, 100]) == 0
        assert cache.record_count == 3

    def test_evict_then_reinsert(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        fill(cache, range(10))
        cache.evict_keys(range(10))
        assert cache.used_bytes == 0
        fill(cache, range(10, 20))
        assert cache.record_count == 10
        cache.check_integrity()


class TestFullestBucket:
    """Alg. 1 line 10, with bucket loads summed from the node's store."""

    @pytest.fixture
    def ring(self):
        self.n1, self.n2 = NodeStore(10_000), NodeStore(10_000)
        r = ConsistentHashRing(ring_range=100)
        r.add_bucket(99, self.n1)  # sentinel-style last bucket
        r.add_bucket(49, self.n2)
        return r

    def test_fullest_bucket_of(self, ring):
        ring.add_bucket(20, self.n1)
        self.n2.put(10, b"x" * 100)   # bucket 49 (n2)
        self.n1.put(60, b"x" * 500)   # bucket 99 (n1)
        self.n1.put(5, b"x" * 50)     # bucket 20 (n1)
        assert fullest_bucket(ring, self.n1) == 99
        assert fullest_bucket(ring, self.n2) == 49

    def test_fullest_bucket_tie_breaks_low(self, ring):
        ring.add_bucket(20, self.n1)
        # both n1 buckets empty -> lowest position wins
        assert fullest_bucket(ring, self.n1) == 20

    def test_fullest_of_unknown_node_raises(self, ring):
        with pytest.raises(RingError):
            fullest_bucket(ring, NodeStore(10))
