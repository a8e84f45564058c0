"""Property-based tests: the B+-tree against a dict model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.btree.bplustree import BPlusTree
from repro.btree.sweep import sweep_range

keys_st = st.integers(min_value=0, max_value=10_000)


@given(st.lists(st.tuples(keys_st, st.integers()), max_size=300),
       st.sampled_from([3, 4, 7, 16]))
@settings(max_examples=60, deadline=None)
def test_matches_dict_after_inserts(pairs, order):
    tree = BPlusTree(order=order)
    model = {}
    for k, v in pairs:
        tree.insert(k, v)
        model[k] = v
    tree.check_invariants()
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())


@given(st.lists(keys_st, min_size=1, max_size=200, unique=True),
       st.data(), st.sampled_from([3, 4, 16]))
@settings(max_examples=60, deadline=None)
def test_matches_dict_after_mixed_ops(keys, data, order):
    tree = BPlusTree(order=order)
    model = {}
    for k in keys:
        tree.insert(k, k)
        model[k] = k
    to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True))
    for k in to_delete:
        assert tree.delete(k) == model.pop(k)
    tree.check_invariants()
    assert list(tree.items()) == sorted(model.items())


@given(st.lists(keys_st, min_size=1, max_size=150, unique=True),
       keys_st, keys_st)
@settings(max_examples=80, deadline=None)
def test_sweep_matches_model_range(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = BPlusTree(order=4)
    for k in keys:
        tree.insert(k, k * 2)
    expected = sorted((k, k * 2) for k in keys if lo <= k <= hi)
    assert list(sweep_range(tree, lo, hi)) == expected


@given(st.lists(keys_st, min_size=1, max_size=150, unique=True))
@settings(max_examples=60, deadline=None)
def test_kth_key_is_order_statistic(keys):
    tree = BPlusTree(order=4)
    for k in keys:
        tree.insert(k, None)
    ordered = sorted(keys)
    for i in range(len(ordered)):
        assert tree.kth_key(i) == ordered[i]


@given(st.lists(keys_st, min_size=1, max_size=150, unique=True),
       keys_st, keys_st)
@settings(max_examples=60, deadline=None)
def test_count_range_matches_model(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = BPlusTree(order=5)
    for k in keys:
        tree.insert(k, None)
    assert tree.count_range(lo, hi) == sum(1 for k in keys if lo <= k <= hi)


@given(st.sampled_from([3, 4, 8, 64]), st.integers(min_value=0, max_value=2000),
       st.randoms(use_true_random=False),
       st.lists(st.tuples(st.booleans(), st.integers(0, 9_999)), max_size=200))
@settings(max_examples=60, deadline=None)
def test_from_sorted_matches_inserts(order, n, rnd, ops):
    """The bulk load is a sound tree holding exactly the keys incremental
    inserts would, and stays sound under later inserts and deletes."""
    keys = sorted(rnd.sample(range(10_000), n))
    bulk = BPlusTree.from_sorted(keys, order=order)
    bulk.check_invariants()
    grown = BPlusTree(order=order)
    for k in keys:
        grown.insert(k, None)
    assert list(bulk.keys()) == list(grown.keys()) == keys
    assert len(bulk) == n
    model = set(keys)
    for is_insert, k in ops:
        if is_insert:
            bulk.insert(k, None)
            model.add(k)
        elif k in model:
            bulk.delete(k)
            model.discard(k)
    bulk.check_invariants()
    assert list(bulk.keys()) == sorted(model)


@pytest.mark.parametrize("order", [3, 4, 5, 8])
def test_from_sorted_every_size_up_to_three_levels(order):
    """Every key count across the leaf- and internal-level packing
    boundaries of a three-level tree."""
    for n in range(order * (order + 1) * 3):
        tree = BPlusTree.from_sorted(range(n), order=order)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(n))


class BTreeMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary interleavings of insert/delete/search."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model = {}

    @rule(k=keys_st, v=st.integers())
    def insert(self, k, v):
        self.tree.insert(k, v)
        self.model[k] = v

    @rule(k=keys_st)
    def delete_maybe_missing(self, k):
        if k in self.model:
            assert self.tree.delete(k) == self.model.pop(k)
        else:
            with pytest.raises(KeyError):
                self.tree.delete(k)

    @rule(k=keys_st)
    def search(self, k):
        assert self.tree.search(k) == self.model.get(k)

    @invariant()
    def structurally_sound(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


TestBTreeStateMachine = BTreeMachine.TestCase
TestBTreeStateMachine.settings = settings(max_examples=25, stateful_step_count=40,
                                          deadline=None)
