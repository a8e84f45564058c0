"""Unit tests for the consistent-hash ring."""

import pytest

from repro.core.ring import ConsistentHashRing, RingError


@pytest.fixture
def ring():
    r = ConsistentHashRing(ring_range=100)
    r.add_bucket(99, "n1")  # sentinel-style last bucket
    r.add_bucket(49, "n2")
    return r


class TestHash:
    def test_identity_mode_passes_keys_through(self):
        r = ConsistentHashRing(ring_range=100)
        assert r.hash_key(42) == 42

    def test_identity_mode_rejects_aliasing_keys(self):
        r = ConsistentHashRing(ring_range=100)
        with pytest.raises(RingError):
            r.hash_key(142)  # would alias key 42 and corrupt the index
        with pytest.raises(RingError):
            r.hash_key(-1)

    def test_splitmix_mode_spreads_collision_free(self):
        r = ConsistentHashRing(ring_range=1 << 16, hash_mode="splitmix")
        assert r.ring_range == 1 << 64  # full bijective range
        positions = {r.hash_key(k) for k in range(10_000)}
        assert len(positions) == 10_000

    def test_invalid_mode_rejected(self):
        with pytest.raises(RingError):
            ConsistentHashRing(ring_range=10, hash_mode="bogus")

    def test_tiny_range_rejected(self):
        with pytest.raises(RingError):
            ConsistentHashRing(ring_range=1)


class TestLookup:
    def test_closest_upper_bucket(self, ring):
        assert ring.node_for_key(10) == "n2"   # 10 <= 49
        assert ring.node_for_key(49) == "n2"   # boundary is inclusive
        assert ring.node_for_key(50) == "n1"   # 49 < 50 <= 99
        assert ring.node_for_key(99) == "n1"

    def test_circular_wrap(self):
        r = ConsistentHashRing(ring_range=100)
        r.add_bucket(30, "a")
        r.add_bucket(60, "b")
        # h'(k) = 80 > b_p = 60 -> wraps to b_1 = 30
        assert r.node_for_hkey(80) == "a"

    def test_empty_ring_raises(self):
        with pytest.raises(RingError):
            ConsistentHashRing(ring_range=10).bucket_for_hkey(5)

    def test_paper_figure1_example(self):
        """Fig. 1: new node n3 at r/2 takes only (b3, b6] keys from n2."""
        r = ConsistentHashRing(ring_range=1000)
        for pos, node in [(100, "n1"), (200, "n1"), (400, "n2"),
                          (700, "n2"), (999, "n1")]:
            r.add_bucket(pos, node)
        before = {k: r.node_for_hkey(k) for k in range(1000)}
        r.add_bucket(500, "n3")
        after = {k: r.node_for_hkey(k) for k in range(1000)}
        moved = [k for k in range(1000) if before[k] != after[k]]
        # Exactly the (400, 500] interval moves, and it moves to n3.
        assert moved == list(range(401, 501))
        assert all(after[k] == "n3" for k in moved)


class TestBuckets:
    def test_duplicate_bucket_rejected(self, ring):
        with pytest.raises(RingError):
            ring.add_bucket(49, "n3")

    def test_out_of_range_bucket_rejected(self, ring):
        with pytest.raises(RingError):
            ring.add_bucket(100, "n3")
        with pytest.raises(RingError):
            ring.add_bucket(-1, "n3")

    def test_buckets_of(self, ring):
        ring.add_bucket(20, "n1")
        assert ring.buckets_of("n1") == [20, 99]
        assert ring.buckets_of("n2") == [49]

    def test_remove_bucket_folds_into_successor(self, ring):
        ring.remove_bucket(49)
        assert ring.node_for_hkey(30) == "n1"
        with pytest.raises(RingError):
            ring.remove_bucket(49)

    def test_cannot_remove_last_bucket(self):
        r = ConsistentHashRing(ring_range=10)
        r.add_bucket(9, "n")
        with pytest.raises(RingError):
            r.remove_bucket(9)

    def test_reassign_bucket(self, ring):
        ring.reassign_bucket(49, "n9")
        assert ring.node_for_hkey(10) == "n9"

    def test_nodes_listing_is_stable(self, ring):
        ring.add_bucket(10, "n3")
        assert ring.nodes() == ["n3", "n2", "n1"]  # bucket order


class TestIntervals:
    def test_interior_bucket_segment(self, ring):
        assert ring.interval_segments(99) == [(50, 99)]

    def test_first_bucket_includes_tail_when_wrapping(self):
        r = ConsistentHashRing(ring_range=100)
        r.add_bucket(30, "a")
        r.add_bucket(60, "b")
        # circular order: tail first, then the head segment
        assert r.interval_segments(30) == [(61, 99), (0, 30)]

    def test_sentinel_prevents_wrap(self, ring):
        # b_p == r-1, so the first bucket's tail segment is empty.
        assert ring.interval_segments(49) == [(0, 49)]

    def test_single_bucket_covers_line(self):
        r = ConsistentHashRing(ring_range=50)
        r.add_bucket(10, "a")
        assert r.interval_segments(10) == [(0, 49)]

    def test_unknown_bucket_rejected(self, ring):
        with pytest.raises(RingError):
            ring.interval_segments(7)
