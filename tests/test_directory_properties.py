"""Property tests: the directory cache against a dict model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.config import CacheConfig
from repro.core.directory import DirectoryCache
from repro.sim.clock import SimClock

REC = 10


def fresh(elastic=True, capacity_records=6):
    cloud = SimulatedCloud(clock=SimClock(), rng=np.random.default_rng(0),
                           max_nodes=256)
    return DirectoryCache(
        cloud=cloud, network=NetworkModel(),
        config=CacheConfig(ring_range=1 << 12,
                           node_capacity_bytes=capacity_records * REC),
        elastic=elastic,
    )


@given(st.lists(st.integers(0, 3000), max_size=200))
@settings(max_examples=30, deadline=None)
def test_elastic_directory_never_loses_records(keys):
    cache = fresh(elastic=True)
    model = {}
    for i, k in enumerate(keys):
        cache.put(k, i, nbytes=REC)
        model[k] = i
    cache.check_integrity()
    assert cache.record_count == len(model)
    for k, v in model.items():
        assert cache.get(k).value == v


class DirectoryMachine(RuleBasedStateMachine):
    """LRU mode: the cache must always hold the most recently used keys."""

    def __init__(self):
        super().__init__()
        self.capacity = 8  # records, single node, non-elastic
        self.cache = fresh(elastic=False, capacity_records=self.capacity)
        self.model: dict[int, int] = {}
        self.counter = 0

    @rule(key=st.integers(0, 50))
    def put(self, key):
        self.counter += 1
        self.cache.put(key, self.counter, nbytes=REC)
        self.model[key] = self.counter

    @rule(key=st.integers(0, 50))
    def get(self, key):
        record = self.cache.get(key)
        if record is not None:
            assert record.value == self.model[key]

    @rule(key=st.integers(0, 50))
    def delete(self, key):
        existed_in_cache = key in self.cache
        self.cache.evict_keys([key])
        if existed_in_cache:
            self.model.pop(key, None)

    @invariant()
    def capacity_respected(self):
        assert self.cache.record_count <= self.capacity
        assert self.cache.used_bytes <= self.capacity * REC

    @invariant()
    def structurally_sound(self):
        self.cache.check_integrity()

    @invariant()
    def cached_values_are_current(self):
        for node in self.cache.nodes:
            for _, rec in node.items():
                assert self.model.get(rec.key) == rec.value


TestDirectoryStateMachine = DirectoryMachine.TestCase
TestDirectoryStateMachine.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None)
