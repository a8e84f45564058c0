"""Unit tests for the rule-based auto-scaler baseline."""

import pytest

from repro.core.config import CacheConfig
from repro.core.autoscaler import AutoscaledModNCache

REC = 100


def make_autoscaled(cloud, network, capacity=10 * REC, **kw):
    defaults = dict(n_nodes=1, scale_up_at=0.8, scale_down_at=0.3,
                    cooldown_slices=0, max_fleet=10)
    defaults.update(kw)
    return AutoscaledModNCache(
        cloud=cloud, network=network,
        config=CacheConfig(ring_range=1 << 12, node_capacity_bytes=capacity),
        **defaults,
    )


class TestScalingRules:
    def test_threshold_validation(self, cloud, network):
        with pytest.raises(ValueError):
            make_autoscaled(cloud, network, scale_up_at=0.3, scale_down_at=0.5)

    def test_scales_up_when_hot(self, cloud, network):
        cache = make_autoscaled(cloud, network)
        for k in range(9):  # 90 % utilization
            cache.put(k, "x", nbytes=REC)
        cache.end_time_slice()
        assert cache.node_count == 2
        assert len(cache.resize_events) == 1

    def test_no_action_in_band(self, cloud, network):
        cache = make_autoscaled(cloud, network)
        for k in range(5):  # 50 %: between the thresholds
            cache.put(k, "x", nbytes=REC)
        cache.end_time_slice()
        assert cache.node_count == 1
        assert cache.resize_events == []

    def test_scales_down_when_cold(self, cloud, network):
        cache = make_autoscaled(cloud, network, n_nodes=3)
        cache.put(0, "x", nbytes=REC)  # ~3 % utilization
        cache.end_time_slice()
        assert cache.node_count == 2

    def test_respects_min_and_max(self, cloud, network):
        cache = make_autoscaled(cloud, network, n_nodes=1, max_fleet=2)
        for k in range(30):
            cache.put(k, "x", nbytes=REC)
            cache.end_time_slice()
        assert cache.node_count <= 2
        # drain and shrink
        for node, lru in zip(cache.nodes, cache.lru):
            for hkey, _ in node.items():
                node.pop(hkey)
                lru.discard(hkey)
        for _ in range(5):
            cache.end_time_slice()
        assert cache.node_count == 1  # min_nodes floor

    def test_cooldown_dampens_flapping(self, cloud, network):
        cache = make_autoscaled(cloud, network, cooldown_slices=3)
        for k in range(9):
            cache.put(k, "x", nbytes=REC)
        cache.end_time_slice()  # acts (cooldown satisfied initially)
        n_after_first = cache.node_count
        for k in range(9, 18):
            cache.put(k, "x", nbytes=REC)
        cache.end_time_slice()  # within cooldown: no action
        assert cache.node_count == n_after_first
        cache.end_time_slice()
        cache.end_time_slice()  # cooldown expires -> may act
        assert cache.node_count >= n_after_first


class TestDisruption:
    def test_resize_pays_rehash_time(self, cloud, network):
        cache = make_autoscaled(cloud, network)
        for k in range(9):
            cache.put(k, "x", nbytes=REC)
        t0 = cloud.clock.now
        cache.end_time_slice()
        event = cache.resize_events[0]
        assert cloud.clock.now > t0
        assert event.records_moved > 0
        assert event.rehash_s > 0
        assert event.overhead_s >= event.rehash_s

    def test_records_survive_resizes(self, cloud, network):
        cache = make_autoscaled(cloud, network, capacity=20 * REC, max_fleet=8)
        keys = list(range(60))
        for k in keys:
            cache.put(k, f"v{k}", nbytes=REC)
            if k % 10 == 9:
                cache.end_time_slice()
        for k in keys:
            assert cache.get(k) is not None, f"lost {k} in a rehash"

    def test_stats_expose_disruption(self, cloud, network):
        cache = make_autoscaled(cloud, network)
        for k in range(9):
            cache.put(k, "x", nbytes=REC)
        cache.end_time_slice()
        stats = cache.stats()
        assert stats["resizes"] == 1
        assert stats["rehash_records_moved"] > 0
        assert stats["rehash_overhead_s"] > 0

    def test_rehash_moves_majority_gba_does_not(self, cloud, network):
        """The paper's core contrast, as a single assertion."""
        cache = make_autoscaled(cloud, network, capacity=20 * REC)
        for k in range(17):
            cache.put(k, "x", nbytes=REC)
        cache.end_time_slice()  # 1 -> 2: k mod 1 != k mod 2 for half
        event = cache.resize_events[0]
        assert event.records_moved >= 0.4 * 17
