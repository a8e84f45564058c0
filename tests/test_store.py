"""The node store against a dict model (Hypothesis stateful test)."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.btree.store import NodeStore

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
