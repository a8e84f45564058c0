"""Self-time reduction on hand-built span trees.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, reduce_spans  # noqa: E402


def _span(name, start, end, span_id, parent=0, seq=-1):
    return (name, start, end, span_id, parent, seq)


def test_nested_children_are_subtracted_once():
    # query [0,100] -> get [10,60] -> recv [20,50]
    spans = [
        _span("query", 0, 100, 1),
        _span("get", 10, 60, 2, parent=1),
        _span("recv", 20, 50, 3, parent=2),
    ]
    out = reduce_spans(spans)
    assert out["query"]["self_ns"] == 50
    assert out["get"]["self_ns"] == 20
    assert out["recv"]["self_ns"] == 30
    assert out["query"]["total_ns"] == 100


def test_overlapping_children_count_their_union():
    # fan-out [0,100] with branches [10,70] and [40,90] on two threads:
    # union [10,90] = 80, so the parent waited 20 on its own.
    spans = [
        _span("fanout", 0, 100, 1),
        _span("branch", 10, 70, 2, parent=1),
        _span("branch", 40, 90, 3, parent=1),
    ]
    out = reduce_spans(spans)
    assert out["fanout"]["self_ns"] == 20
    assert out["branch"]["count"] == 2
    assert out["branch"]["self_ns"] == 60 + 50


def test_children_outside_the_parent_are_clipped():
    # A child that outlives its parent (detached work) only counts
    # inside the parent's interval; disjoint children add up.
    spans = [
        _span("p", 0, 100, 1),
        _span("c", 90, 150, 2, parent=1),
        _span("c", 0, 10, 3, parent=1),
        _span("c", 30, 40, 4, parent=1),
    ]
    assert reduce_spans(spans)["p"]["self_ns"] == 100 - 10 - 10 - 10


def test_tracer_links_parents_and_seq_across_threads():
    tracer = Tracer()

    def leaf():
        return 1

    leaf_t = tracer.traced(leaf, "leaf")

    def parent():
        ctx = tracer.context()
        worker = threading.Thread(target=tracer.bind(leaf_t, ctx))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        return leaf_t()

    tracer.set_seq(7)
    tracer.traced(parent, "parent")()
    spans = tracer.spans()
    (root,) = [s for s in spans if s[0] == "parent"]
    leaves = [s for s in spans if s[0] == "leaf"]
    assert len(leaves) == 2
    assert all(s[4] == root[3] and s[5] == 7 for s in leaves)
    assert root[4] == 0


def test_patch_and_restore():
    class Box:
        def get(self):
            return 3

    tracer = Tracer()
    original = Box.__dict__["get"]
    tracer.patch(Box, "get", "box.get")
    assert Box().get() == 3
    tracer.restore()
    assert Box.__dict__["get"] is original
    assert [s[0] for s in tracer.spans()] == ["box.get"]
