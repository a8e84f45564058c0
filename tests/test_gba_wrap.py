"""GBA over a *wrapping* ring (no sentinel bucket).

The elastic cache always pins a sentinel at r-1 so bucket intervals stay
contiguous, but the ring and GBA implement full circular semantics; this
suite drives them directly with a hand-built ring whose first bucket's
interval wraps around the hash line, covering the multi-segment sweep and
split paths.
"""

import numpy as np
import pytest

from repro.cloud.instance import INSTANCE_TYPES, CloudNode
from repro.cloud.network import NetworkModel
from repro.core.cachenode import CacheNode
from repro.core.config import CacheConfig
from repro.core.gba import GreedyBucketAllocator
from repro.core.record import CacheRecord
from repro.core.ring import ConsistentHashRing
from repro.sim.clock import SimClock

R = 100
REC = 10


def make_node(name, capacity_records=8):
    return CacheNode(cloud_node=CloudNode(name, INSTANCE_TYPES["m1.small"]),
                     capacity_bytes=capacity_records * REC, order=4)


@pytest.fixture
def wrap_setup():
    """One bucket at 30 covering [31..99] ∪ [0..30] (wraps), one at 30's
    complement serving nothing; a second node exists for greedy reuse."""
    ring = ConsistentHashRing(ring_range=R)
    n1 = make_node("i-n1")
    n2 = make_node("i-n2")
    ring.add_bucket(30, n1)   # first bucket: wraps (covers 31..99 and 0..30)
    ring.add_bucket(60, n2)   # interior bucket: (30, 60]
    clock = SimClock()
    nodes = [n1, n2]
    counter = [0]

    def allocate():
        node = make_node(f"i-new{counter[0]}")
        counter[0] += 1
        clock.advance(50.0)
        nodes.append(node)
        return node

    gba = GreedyBucketAllocator(
        ring=ring, clock=clock, network=NetworkModel(),
        config=CacheConfig(ring_range=R, node_capacity_bytes=8 * REC),
        allocate_node=allocate, live_nodes=lambda: nodes,
    )
    return ring, gba, nodes


def put(gba, ring, key):
    gba.insert(CacheRecord(key=key, hkey=ring.hash_key(key), value=key,
                           nbytes=REC))


class TestWrapBucket:
    def test_wrap_interval_routing(self, wrap_setup):
        ring, _, nodes = wrap_setup
        n1, n2 = nodes[0], nodes[1]
        assert ring.node_for_hkey(95) is n1  # tail segment
        assert ring.node_for_hkey(10) is n1  # head segment
        assert ring.node_for_hkey(45) is n2

    def test_fill_wrap_bucket_and_split(self, wrap_setup):
        ring, gba, nodes = wrap_setup
        n1 = nodes[0]
        # Fill the wrap bucket with keys from both segments.
        keys = [90, 95, 99, 0, 5, 10, 20, 30]  # 8 records: full
        for k in keys:
            put(gba, ring, k)
        assert len(n1) == 8
        # One more key in the wrap interval forces a split of the
        # wrapping bucket — the multi-segment sweep path.
        put(gba, ring, 25)
        assert gba.split_events, "expected a split"
        event = gba.split_events[0]
        assert event.records_moved >= 4  # about half
        # Every key remains reachable through the ring.
        for k in keys + [25]:
            node = ring.node_for_hkey(ring.hash_key(k))
            assert node.get(k) is not None, f"lost key {k}"

    def test_circular_median_takes_tail_first(self, wrap_setup):
        """The 'lower half' of a wrapping bucket starts at the tail
        segment (circular order), not at hash position 0."""
        ring, gba, nodes = wrap_setup
        keys = [90, 95, 99, 0, 5, 10, 20, 30]
        for k in keys:
            put(gba, ring, k)
        put(gba, ring, 25)  # trigger split
        event = gba.split_events[0]
        moved_to_dest = {rec.key for _, rec in
                         next(n for n in nodes
                              if n.node_id == event.dest_id).items()}
        # Circular order is 90,95,99,0,5,10,20,(25),30: the moved half
        # must include the tail keys and exclude the circular top end.
        assert {90, 95, 99}.issubset(moved_to_dest)
        assert 30 not in moved_to_dest

    def test_accounting_consistent_after_wrap_split(self, wrap_setup):
        ring, gba, nodes = wrap_setup
        for k in [90, 95, 99, 0, 5, 10, 20, 30, 25]:
            put(gba, ring, k)
        for node in nodes:
            node.check()
            # Every record sits on the node its bucket routes to.
            for hkey, _ in node.items():
                assert ring.node_for_hkey(hkey) is node

    def test_repeated_wrap_splits(self, wrap_setup):
        ring, gba, nodes = wrap_setup
        rng = np.random.default_rng(0)
        inserted = set()
        for k in rng.permutation(R).tolist():
            put(gba, ring, int(k))
            inserted.add(int(k))
        for k in inserted:
            node = ring.node_for_hkey(ring.hash_key(k))
            assert node.get(k) is not None
        total = sum(len(n) for n in nodes)
        assert total == len(inserted)
