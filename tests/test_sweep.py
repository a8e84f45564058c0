"""Unit tests for the leaf-level range sweep."""

from repro.btree.bplustree import BPlusTree
from repro.btree.sweep import sweep_range


def build(keys, order=4):
    t = BPlusTree(order=order)
    for k in keys:
        t.insert(k, k * 10)
    return t


class TestSweepRange:
    def test_full_range(self):
        t = build(range(20))
        assert list(sweep_range(t, 0, 19)) == [(k, k * 10) for k in range(20)]

    def test_interior_range_inclusive_bounds(self):
        t = build(range(0, 100, 5))
        got = list(sweep_range(t, 10, 30))
        assert got == [(10, 100), (15, 150), (20, 200), (25, 250), (30, 300)]

    def test_start_key_absent(self):
        t = build([2, 4, 6, 8])
        assert [k for k, _ in sweep_range(t, 3, 7)] == [4, 6]

    def test_end_key_absent(self):
        t = build([2, 4, 6, 8])
        assert [k for k, _ in sweep_range(t, 4, 7)] == [4, 6]

    def test_empty_when_start_exceeds_end(self):
        t = build(range(10))
        assert list(sweep_range(t, 5, 4)) == []

    def test_empty_tree(self):
        assert list(sweep_range(BPlusTree(), 0, 100)) == []

    def test_range_beyond_max(self):
        t = build(range(10))
        assert list(sweep_range(t, 100, 200)) == []

    def test_range_below_min(self):
        t = build(range(10, 20))
        assert list(sweep_range(t, 0, 9)) == []

    def test_single_key_range(self):
        t = build(range(10))
        assert list(sweep_range(t, 4, 4)) == [(4, 40)]

    def test_spans_many_leaves(self):
        t = build(range(500), order=3)  # forces a deep tree, many leaves
        got = [k for k, _ in sweep_range(t, 100, 399)]
        assert got == list(range(100, 400))

    def test_sweep_is_lazy(self):
        t = build(range(1000), order=4)
        it = sweep_range(t, 0, 999)
        first = next(it)
        assert first == (0, 0)  # no full materialization required
