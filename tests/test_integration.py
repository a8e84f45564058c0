"""Cross-module integration tests: the full stack, end to end.

These drive the *real* shoreline-extraction service (actual terrain
synthesis + marching squares, not the synthetic stand-in) through the
complete cache system, and inject failures the unit tests don't reach.
"""

import numpy as np
import pytest

from repro.cloud.provider import AllocationError, SimulatedCloud
from repro.core.cachenode import CapacityError
from repro.core.config import (
    CacheConfig,
    ContractionConfig,
    EvictionConfig,
    ExperimentTimings,
)
from repro.core.coordinator import Coordinator
from repro.core.elastic import ElasticCooperativeCache
from repro.services.ctm import CoastalTerrainModel
from repro.services.shoreline import ShorelineExtractionService
from repro.sfc.btwo import Linearizer
from repro.sim.clock import SimClock


def build_real_stack(seed=0, capacity_records=60, window=None, max_nodes=32):
    from repro.cloud.network import NetworkModel

    clock = SimClock()
    cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(seed),
                           max_nodes=max_nodes)
    network = NetworkModel()
    timings = ExperimentTimings()
    footprint = timings.result_bytes + timings.record_overhead_bytes
    cache = ElasticCooperativeCache(
        cloud=cloud, network=network,
        config=CacheConfig(ring_range=1 << 18,
                           node_capacity_bytes=capacity_records * footprint),
        eviction=EvictionConfig(window_slices=window),
        contraction=ContractionConfig(epsilon_slices=2),
    )
    lin = Linearizer(nbits=6)
    service = ShorelineExtractionService(clock, linearizer=lin,
                                         ctm=CoastalTerrainModel(grid=16))
    coordinator = Coordinator(cache=cache, service=service, clock=clock,
                              network=network, timings=timings)
    clock.reset()  # cold start: setup boots don't count (harness convention)
    return coordinator, cache, service, lin, cloud


class TestRealServiceStack:
    def test_hit_returns_identical_payload(self):
        coordinator, cache, service, lin, _ = build_real_stack()
        key = lin.encode(3, 4, 5)
        miss = coordinator.query(key)
        hit = coordinator.query(key)
        assert not miss.hit and hit.hit
        assert hit.value.payload == miss.value.payload
        assert service.invocations == 1

    def test_distinct_inputs_compute_distinct_shorelines(self):
        coordinator, _, service, lin, _ = build_real_stack()
        a = coordinator.query(lin.encode(1, 1, 1)).value.payload
        b = coordinator.query(lin.encode(2, 2, 2)).value.payload
        assert a != b
        assert service.invocations == 2

    def test_growth_under_real_workload(self):
        coordinator, cache, _, lin, _ = build_real_stack(capacity_records=30)
        rng = np.random.default_rng(42)
        for _ in range(150):
            x, y, t = rng.integers(0, 12, size=3)
            coordinator.query(lin.encode(int(x), int(y), int(t)))
        assert cache.node_count > 1
        cache.check_integrity()
        # Every cached payload is still the service's exact output.
        sample_keys = [lin.encode(int(x), int(y), int(t))
                       for x, y, t in rng.integers(0, 12, size=(10, 3))]
        for key in sample_keys:
            outcome = coordinator.query(key)
            rec = cache.get(key)
            assert rec is not None
            assert rec.value.payload == outcome.value.payload

    def test_eviction_contraction_with_real_service(self):
        coordinator, cache, _, lin, _ = build_real_stack(
            capacity_records=30, window=3)
        rng = np.random.default_rng(7)
        # Burst over a wide key range -> growth.
        for step in range(6):
            for _ in range(40):
                x, y, t = rng.integers(0, 16, size=3)
                coordinator.query(lin.encode(int(x), int(y), int(t)))
            coordinator.end_step()
        grown = cache.node_count
        assert grown > 1
        # Quiet tail over a tiny range -> eviction + contraction.
        for step in range(10):
            for _ in range(3):
                coordinator.query(lin.encode(0, 0, int(rng.integers(0, 4))))
            coordinator.end_step()
        assert cache.node_count < grown
        assert coordinator.metrics.total_evictions > 0
        cache.check_integrity()

    def test_virtual_time_dominated_by_misses(self):
        coordinator, _, _, lin, cloud = build_real_stack()
        for t in range(5):
            coordinator.query(lin.encode(1, 1, t))
        misses_time = 5 * 23.0
        assert cloud.clock.now >= misses_time
        assert cloud.clock.now < misses_time * 1.5  # overheads are small


class TestFailureInjection:
    def test_quota_exhaustion_surfaces_cleanly(self):
        coordinator, cache, _, lin, cloud = build_real_stack(
            capacity_records=5, max_nodes=2)
        with pytest.raises((AllocationError, CapacityError)):
            for t in range(64):
                for x in range(8):
                    coordinator.query(lin.encode(x, 0, t))
        # The cache survived the failed insert: still serviceable.
        cache.check_integrity()
        some_cached = next(
            (k for k in (lin.encode(x, 0, t) for t in range(8) for x in range(8))
             if cache.get(k) is not None),
            None,
        )
        assert some_cached is not None

    def test_oversized_record_rejected_not_corrupting(self):
        coordinator, cache, _, lin, _ = build_real_stack(capacity_records=5)
        with pytest.raises(CapacityError):
            cache.put(999, b"x", nbytes=10 * (1024 + 64))
        cache.check_integrity()

    def test_node_failure_with_replication_recovers(self):
        from repro.extensions.replication import ReplicationManager

        coordinator, cache, _, lin, _ = build_real_stack(capacity_records=20)
        rng = np.random.default_rng(3)
        keys = [lin.encode(int(x), int(y), int(t))
                for x, y, t in rng.integers(0, 10, size=(60, 3))]
        for k in keys:
            coordinator.query(k)
        assert cache.node_count >= 2
        repl = ReplicationManager(cache)
        repl.sync()
        victim = max(cache.nodes, key=len)
        lost_keys = [rec.key for _, rec in victim.items()]
        repl.fail_node(victim)
        repl.recover_node_loss(victim.node_id)
        for k in lost_keys:
            assert cache.get(k) is not None
        cache.check_integrity()

    def test_clock_monotonicity_through_full_run(self):
        coordinator, cache, _, lin, cloud = build_real_stack(capacity_records=20)
        timestamps = []
        rng = np.random.default_rng(1)
        for _ in range(80):
            x, y, t = rng.integers(0, 10, size=3)
            coordinator.query(lin.encode(int(x), int(y), int(t)))
            timestamps.append(cloud.clock.now)
        assert all(b >= a for a, b in zip(timestamps, timestamps[1:]))
