"""Stateful property test: static-N cache vs an exact per-node LRU model.

The baseline's whole behaviour — mod-N placement, per-node LRU
victimization — is modeled exactly in plain Python and checked against
the real implementation under arbitrary operation sequences.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.config import CacheConfig
from repro.core.static_cache import StaticCooperativeCache
from repro.sim.clock import SimClock

REC = 10
N_NODES = 3
CAPACITY_RECORDS = 4


class _ModelNode:
    """Exact model of one node: dict + LRU order list."""

    def __init__(self, capacity_records):
        self.data: dict[int, int] = {}
        self.order: list[int] = []  # least-recent first
        self.capacity = capacity_records

    def touch(self, key):
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)

    def get(self, key):
        if key in self.data:
            self.touch(key)
            return self.data[key]
        return None

    def put(self, key, value):
        if key in self.data:
            del self.data[key]
            self.order.remove(key)
        while len(self.data) >= self.capacity:
            victim = self.order.pop(0)
            del self.data[victim]
        self.data[key] = value
        self.touch(key)


class StaticCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        cloud = SimulatedCloud(clock=SimClock(),
                               rng=np.random.default_rng(0), max_nodes=16)
        self.cache = StaticCooperativeCache(
            cloud=cloud, network=NetworkModel(),
            config=CacheConfig(ring_range=1 << 12,
                               node_capacity_bytes=CAPACITY_RECORDS * REC),
            n_nodes=N_NODES)
        self.model = [_ModelNode(CAPACITY_RECORDS) for _ in range(N_NODES)]
        self.counter = 0

    def _node(self, key):
        return self.model[key % N_NODES]

    @rule(key=st.integers(0, 40))
    def put(self, key):
        self.counter += 1
        self.cache.put(key, self.counter, nbytes=REC)
        self._node(key).put(key, self.counter)

    @rule(key=st.integers(0, 40))
    def get(self, key):
        got = self.cache.get(key)
        expected = self._node(key).get(key)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.value == expected

    @invariant()
    def contents_match_model(self):
        for idx, node in enumerate(self.cache.nodes):
            real = {rec.key: rec.value for _, rec in node.items()}
            assert real == self.model[idx].data

    @invariant()
    def capacity_respected(self):
        for node in self.cache.nodes:
            assert node.used_bytes <= node.capacity_bytes
            node.check()


TestStaticCacheStateMachine = StaticCacheMachine.TestCase
TestStaticCacheStateMachine.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None)
