"""Unit tests for the per-node cache slice."""

import pytest

from repro.cloud.instance import INSTANCE_TYPES, CloudNode
from repro.core.cachenode import CacheNode, CapacityError
from repro.core.record import CacheRecord


def make_node(capacity=1000) -> CacheNode:
    cn = CloudNode("i-test", INSTANCE_TYPES["m1.small"])
    return CacheNode(cloud_node=cn, capacity_bytes=capacity, order=4)


def rec(key, nbytes=100):
    return CacheRecord(key=key, hkey=key, value=f"v{key}", nbytes=nbytes)


class TestRecord:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            CacheRecord(key=1, hkey=1, value=None, nbytes=0)

    def test_frozen(self):
        r = rec(1)
        with pytest.raises(AttributeError):
            r.nbytes = 5


class TestCapacity:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_node(capacity=0)

    def test_fits_tracks_usage(self):
        node = make_node(capacity=250)
        assert node.fits(100)
        node.insert(rec(1))
        node.insert(rec(2))
        assert node.fits(50)
        assert not node.fits(51)

    def test_insert_beyond_capacity_raises(self):
        node = make_node(capacity=150)
        node.insert(rec(1))
        with pytest.raises(CapacityError):
            node.insert(rec(2))
        node.check()

    def test_free_bytes(self):
        node = make_node(capacity=1000)
        node.insert(rec(1, nbytes=300))
        assert node.free_bytes == 700


class TestInsertDelete:
    def test_search_after_insert(self):
        node = make_node()
        node.insert(rec(5))
        assert node.get(5).value == "v5"
        assert node.get(6) is None

    def test_overwrite_releases_old_footprint(self):
        node = make_node(capacity=250)
        node.insert(rec(1, nbytes=200))
        node.insert(CacheRecord(key=1, hkey=1, value="new", nbytes=100))
        assert node.used_bytes == 100
        assert node.get(1).value == "new"
        assert len(node) == 1
        node.check()

    def test_overwrite_that_would_overflow_restores_state(self):
        node = make_node(capacity=250)
        node.insert(rec(1, nbytes=100))
        node.insert(rec(2, nbytes=100))
        with pytest.raises(CapacityError):
            node.insert(CacheRecord(key=1, hkey=1, value="big", nbytes=200))
        # The old record survives and accounting is unchanged.
        assert node.get(1).value == "v1"
        assert node.used_bytes == 200
        node.check()

    def test_delete_returns_record_and_frees(self):
        node = make_node()
        node.insert(rec(5, nbytes=123))
        out = node.pop(5)
        assert out.nbytes == 123
        assert node.used_bytes == 0
        assert node.pop(5) is None


class TestRangeOps:
    def test_records_in_inclusive(self):
        node = make_node(capacity=10_000)
        for k in range(0, 100, 10):
            node.insert(rec(k, nbytes=10))
        keys = [r.key for _, r in node.sweep(15, 55)]
        assert keys == [20, 30, 40, 50]

    def test_count_in(self):
        node = make_node(capacity=10_000)
        for k in range(20):
            node.insert(rec(k, nbytes=10))
        assert node.count_in(5, 14) == 10

    def test_extract_range_removes_and_returns(self):
        node = make_node(capacity=10_000)
        for k in range(20):
            node.insert(rec(k, nbytes=10))
        # Algorithm 2's source side: sweep the range, then pop it.
        victims = [r for _, r in node.sweep(0, 9)]
        for victim in victims:
            node.pop(victim.hkey)
        assert [v.key for v in victims] == list(range(10))
        assert len(node) == 10
        assert node.used_bytes == 100
        node.check()

    def test_extract_empty_range(self):
        node = make_node()
        node.insert(rec(5))
        assert node.sweep(10, 20) == []
        assert len(node) == 1
