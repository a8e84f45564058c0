"""The node store against a dict model (Hypothesis stateful test)."""

from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.btree.bplustree import BPlusTree
from repro.btree.store import NodeStore
from repro.live.server import _Store
from tests.conftest import check_stores

CAPACITY = 400
keys_st = st.integers(min_value=0, max_value=60)
values_st = st.binary(min_size=1, max_size=60)


class NodeStoreMachine(RuleBasedStateMachine):
    """Random put/overwrite/pop/range interleavings on a small, deep
    store (order 3), so overflow refusals and tree splits and merges
    all happen often."""

    def __init__(self):
        super().__init__()
        self.store = NodeStore(CAPACITY, order=3)
        self.model: dict[int, bytes] = {}

    def in_range(self, lo, hi):
        return sorted((k, v) for k, v in self.model.items() if lo <= k <= hi)

    @rule(k=keys_st, v=values_st)
    def put(self, k, v):
        old = self.model.get(k, b"")
        used = sum(map(len, self.model.values()))
        freed = self.store.put(k, v)
        if used - len(old) + len(v) > CAPACITY:
            assert freed is None  # refused, store unchanged
        else:
            assert freed == len(old)  # an overwrite refunds the old bytes
            self.model[k] = v

    @rule(k=keys_st)
    def pop(self, k):
        assert self.store.pop(k) == self.model.pop(k, None)

    @rule(k=keys_st)
    def get(self, k):
        assert self.store.get(k) == self.model.get(k)
        assert (k in self.store) == (k in self.model)

    @rule(a=keys_st, b=keys_st)
    def range_queries(self, a, b):
        lo, hi = min(a, b), max(a, b)
        expected = self.in_range(lo, hi)
        assert self.store.sweep(lo, hi) == expected
        assert self.store.count_in(lo, hi) == len(expected)
        assert self.store.bytes_in(lo, hi) == sum(len(v) for _, v in expected)

    @rule(a=keys_st, b=keys_st, k=st.integers(min_value=0, max_value=70))
    def kth_key(self, a, b, k):
        lo, hi = min(a, b), max(a, b)
        expected = self.in_range(lo, hi)
        if k < len(expected):
            assert self.store.kth_key(lo, hi, k) == expected[k][0]
        else:
            with pytest.raises(IndexError):
                self.store.kth_key(lo, hi, k)

    @invariant()
    def matches_model(self):
        self.store.check()
        assert self.store.items() == sorted(self.model.items())
        assert self.store.used_bytes == sum(map(len, self.model.values()))
        assert self.store.free_bytes == CAPACITY - self.store.used_bytes
        assert len(self.store) == len(self.model)


TestNodeStoreStateMachine = NodeStoreMachine.TestCase
TestNodeStoreStateMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None)


def test_check_catches_index_tree_skew():
    store = NodeStore(100)
    store.put(1, b"a")
    store.tree.insert(2, None)  # a key only the tree holds
    with pytest.raises(AssertionError):
        store.check()


def test_check_catches_byte_skew():
    store = NodeStore(100)
    store.put(1, b"abc")
    store.used_bytes += 1
    with pytest.raises(AssertionError):
        store.check()


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        NodeStore(0)


def test_point_ops_never_touch_the_tree(monkeypatch):
    """put and pop keep only the dict; the ordered index is rebuilt by
    the next range op, never maintained key by key."""
    def forbidden(*args, **kwargs):
        raise AssertionError("point op maintained the B+-tree")

    monkeypatch.setattr(BPlusTree, "insert", forbidden)
    monkeypatch.setattr(BPlusTree, "delete", forbidden)
    store = NodeStore(10_000, order=3)
    for k in range(200):
        assert store.put(k * 7 % 200, b"v%d" % k) == 0
        if k % 3 == 0:
            assert store.sweep(50, 60) == [
                (key, store.get(key)) for key in range(50, 61) if key in store]
    for k in range(0, 200, 2):
        assert store.pop(k) is not None
    old = store.get(1)
    assert store.put(1, b"new") == len(old)  # an overwrite, not a new key
    assert [k for k, _ in store.sweep(0, 20)] == list(range(1, 21, 2))
    assert store.count_in(0, 199) == 100
    assert store.kth_key(0, 199, 50) == 101
    store.check()


def test_live_store_snapshot_after_interleaved_writes():
    store = _Store(capacity_bytes=1 << 20, order=4, lease_s=1.0)
    server = SimpleNamespace(store=store, replica_store=store)
    model: dict[int, bytes] = {}
    for i in range(300):
        key = i * 37 % 500
        if i % 5 == 4:
            gone = (i - 1) * 37 % 500  # the previous step's key
            assert store.delete(gone) == len(model.pop(gone))
        elif i % 7 == 6:
            batch = [(key + j, b"m%d" % i) for j in range(3)]
            stored, _, _, error = store.multi_put(batch)
            assert error is None and stored == [k for k, _ in batch]
            model.update(batch)
        else:
            assert store.put(key, b"p%d" % i)[0]
            model[key] = b"p%d" % i
        if i % 4 == 1:
            lo, hi = 100, 400
            assert store.snapshot_range(lo, hi) == sorted(
                (k, v) for k, v in model.items() if lo <= k <= hi)
            check_stores([server])
    assert store.snapshot_range(0, 1 << 20) == sorted(model.items())
    check_stores([server])
