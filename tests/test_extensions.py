"""Unit tests for the future-work extensions."""

import numpy as np
import pytest

from repro.cloud.provider import SimulatedCloud
from repro.core.config import CacheConfig, EvictionConfig
from repro.core.elastic import ElasticCooperativeCache
from repro.core.sliding_window import SlidingWindowEvictor
from repro.extensions.adaptive_window import AdaptiveWindowController
from repro.extensions.prefetch import PrefetchManager
from repro.extensions.replication import ReplicationManager
from repro.extensions.warmpool import WarmPool
from repro.sim.clock import SimClock
from tests.conftest import make_cache

REC = 100


class TestWarmPool:
    def test_ready_spare_has_zero_wait(self, cloud):
        pool = WarmPool(cloud, spares=1)
        cloud.clock.advance(500.0)
        t0 = cloud.clock.now
        node = pool.acquire()
        assert node.state.value == "running"
        assert cloud.clock.now == t0

    def test_pending_spare_costs_only_residual(self, cloud):
        pool = WarmPool(cloud, spares=1)
        boot = pool._pending[0].ready_at
        cloud.clock.advance(boot * 0.5)
        t0 = cloud.clock.now
        pool.acquire()
        waited = cloud.clock.now - t0
        assert 0 < waited < boot

    def test_pool_replenishes_after_acquire(self, cloud):
        pool = WarmPool(cloud, spares=2)
        cloud.clock.advance(500.0)
        pool.acquire()
        assert len(pool._pending) == 2

    def test_zero_spares_falls_back_to_cold_boot(self, cloud):
        pool = WarmPool(cloud, spares=0)
        t0 = cloud.clock.now
        node = pool.acquire()
        assert node.state.value == "running"
        assert cloud.clock.now - t0 >= cloud.boot_min_s

    def test_respects_quota(self, clock, rng):
        cloud = SimulatedCloud(clock=clock, rng=rng, max_nodes=2)
        pool = WarmPool(cloud, spares=5)
        assert len(pool._pending) <= 2

    def test_mean_wait_tracked(self, cloud):
        pool = WarmPool(cloud, spares=1)
        cloud.clock.advance(500.0)
        pool.acquire()
        assert pool.mean_wait_s == pytest.approx(0.0)

    def test_drain_terminates_spares(self, cloud):
        pool = WarmPool(cloud, spares=2)
        live = cloud.live_count()
        drained = pool.drain()
        assert drained == 2
        assert cloud.live_count() == live - 2

    def test_cache_with_warmpool_splits_cheaply(self, network, rng):
        def build(spares):
            clock = SimClock()
            cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(5),
                                   max_nodes=64)
            pool = WarmPool(cloud, spares=spares) if spares else None
            cache = ElasticCooperativeCache(
                cloud=cloud, network=network,
                config=CacheConfig(ring_range=1 << 12,
                                   node_capacity_bytes=10 * REC),
                node_source=pool.acquire if pool else None,
            )
            clock.advance(1000.0)  # let spares boot
            for k in range(60):
                clock.advance(23.0)  # the service time a miss pays anyway
                cache.put(k, "x", nbytes=REC)
            allocs = [e.allocation_s for e in cache.gba.split_events if e.allocated]
            return allocs, cache

        cold, cache_cold = build(0)
        warm, cache_warm = build(1)
        cache_warm.check_integrity()
        assert cold, "expected allocating splits in the cold configuration"
        # With misses spacing splits further apart than a boot, the pool's
        # spares are ready and allocation waits collapse.
        assert warm == [] or np.mean(warm) < 0.25 * np.mean(cold)


class TestAdaptiveWindow:
    def _evictor(self, m=100):
        return SlidingWindowEvictor(EvictionConfig(window_slices=m))

    def test_shrinks_under_intensive_rate(self):
        ev = self._evictor(100)
        ctl = AdaptiveWindowController(ev, query_budget=5000)
        for _ in range(10):
            ctl.observe_step(250)
        assert ev.m == 20  # 5000 / 250

    def test_grows_in_quiet_period(self):
        ev = self._evictor(100)
        ctl = AdaptiveWindowController(ev, query_budget=5000)
        for _ in range(40):
            ctl.observe_step(10)
        assert ev.m > 100

    def test_clamped_to_bounds(self):
        ev = self._evictor(100)
        ctl = AdaptiveWindowController(ev, query_budget=5000, m_min=30, m_max=60)
        for _ in range(10):
            ctl.observe_step(1000)
        assert ev.m == 30
        for _ in range(100):
            ctl.observe_step(1)
        assert ev.m == 60

    def test_ema_smooths(self):
        ev = self._evictor(100)
        ctl = AdaptiveWindowController(ev, query_budget=5000, smoothing=0.1)
        ctl.observe_step(50)
        ctl.observe_step(250)
        # One intensive step only nudges the estimate.
        assert ctl.rate_estimate < 100

    def test_validation(self):
        ev = self._evictor()
        with pytest.raises(ValueError):
            AdaptiveWindowController(ev, query_budget=0)
        with pytest.raises(ValueError):
            AdaptiveWindowController(ev, smoothing=0.0)
        with pytest.raises(ValueError):
            AdaptiveWindowController(ev, m_min=10, m_max=5)


class TestPrefetch:
    def test_presplits_hot_node(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        for k in range(9):  # 90 % full, no overflow yet
            cache.put(k, "x", nbytes=REC)
        pf = PrefetchManager(cache, high_water=0.85)
        events = pf.maybe_presplit()
        assert len(events) == 1
        assert cache.node_count == 2
        cache.check_integrity()

    def test_no_presplit_below_watermark(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        for k in range(5):
            cache.put(k, "x", nbytes=REC)
        pf = PrefetchManager(cache, high_water=0.9)
        assert pf.maybe_presplit() == []
        assert cache.node_count == 1

    def test_presplit_avoids_query_path_overflow(self, cloud, network):
        """With prefetch active, inserts rarely hit the overflow path."""
        cache = make_cache(cloud, network, capacity_bytes=20 * REC)
        pf = PrefetchManager(cache, high_water=0.7)
        reactive_splits = 0
        for k in range(100):
            events = cache.put(k, "x", nbytes=REC)
            reactive_splits += len(events)
            if k % 5 == 4:
                pf.maybe_presplit()
        assert len(pf.presplit_events) > 0
        total = reactive_splits + len(pf.presplit_events)
        assert reactive_splits < total  # prefetch absorbed some splits
        cache.check_integrity()

    def test_bounded_per_step(self, cloud, network):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        for k in range(40):
            cache.put(k, "x", nbytes=REC)
        pf = PrefetchManager(cache, high_water=0.5, max_presplits_per_step=1)
        assert len(pf.maybe_presplit()) <= 1

    def test_validation(self, cloud, network):
        cache = make_cache(cloud, network)
        with pytest.raises(ValueError):
            PrefetchManager(cache, high_water=1.5)
        with pytest.raises(ValueError):
            PrefetchManager(cache, max_presplits_per_step=0)


class TestReplication:
    def _grown(self, cloud, network, records=30):
        cache = make_cache(cloud, network, capacity_bytes=10 * REC)
        for k in range(records):
            cache.put(k, f"v{k}", nbytes=REC)
        assert cache.node_count >= 2
        return cache

    def test_sync_replicates_everything(self, cloud, network):
        cache = self._grown(cloud, network)
        repl = ReplicationManager(cache)
        count = repl.sync()
        assert count == cache.record_count
        assert repl.replica_count() == cache.record_count

    def test_failure_loses_primaries(self, cloud, network):
        cache = self._grown(cloud, network)
        repl = ReplicationManager(cache)
        repl.sync()
        victim = max(cache.nodes, key=lambda n: len(n))
        lost = repl.fail_node(victim)
        assert lost > 0
        assert cache.record_count == 30 - lost

    def test_recovery_restores_lost_records(self, cloud, network):
        cache = self._grown(cloud, network)
        repl = ReplicationManager(cache)
        repl.sync()
        victim = max(cache.nodes, key=lambda n: len(n))
        lost_keys = [rec.key for _, rec in victim.items()]
        repl.fail_node(victim)
        recovered = repl.recover_node_loss(victim.node_id)
        assert recovered >= len(lost_keys) - len(lost_keys) // 10  # most back
        for k in lost_keys:
            assert cache.get(k) is not None, f"key {k} not recovered"
        cache.check_integrity()

    def test_without_replication_data_is_gone(self, cloud, network):
        cache = self._grown(cloud, network)
        repl = ReplicationManager(cache)  # never synced
        victim = max(cache.nodes, key=lambda n: len(n))
        lost_keys = [rec.key for _, rec in victim.items()]
        repl.fail_node(victim)
        assert repl.recover_node_loss(victim.node_id) == 0
        assert all(cache.get(k) is None for k in lost_keys)

    def test_single_node_cannot_fail(self, cloud, network):
        cache = make_cache(cloud, network)
        cache.put(1, "x", nbytes=REC)
        repl = ReplicationManager(cache)
        with pytest.raises(RuntimeError):
            repl.fail_node(cache.nodes[0])

    def test_on_insert_incremental(self, cloud, network):
        cache = self._grown(cloud, network)
        repl = ReplicationManager(cache)
        record = cache.get(5)
        repl.on_insert(record)
        assert repl.replica_count() == 1
