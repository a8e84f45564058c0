"""Unit tests for the query coordinator."""

import pytest

from repro.core.config import ExperimentTimings
from repro.core.coordinator import Coordinator
from repro.services.base import SyntheticService
from tests.conftest import make_cache

REC = 1024


@pytest.fixture
def system(cloud, network):
    cache = make_cache(cloud, network, capacity_bytes=200 * (REC + 64),
                       ring_range=1 << 12, window=3)
    timings = ExperimentTimings(service_time_s=23.0, hit_overhead_s=0.5,
                                miss_overhead_s=0.05, result_bytes=REC)
    service = SyntheticService(cloud.clock, service_time_s=23.0, result_bytes=REC)
    return Coordinator(cache=cache, service=service, clock=cloud.clock,
                       network=network, timings=timings), cache, service


class TestQueryPath:
    def test_miss_then_hit(self, system):
        coord, cache, service = system
        first = coord.query(42)
        assert not first.hit
        second = coord.query(42)
        assert second.hit
        assert service.invocations == 1

    def test_miss_latency_includes_service_time(self, system):
        coord, _, _ = system
        out = coord.query(1)
        assert out.latency_s >= 23.0

    def test_hit_latency_is_sub_second(self, system):
        coord, _, _ = system
        coord.query(1)
        out = coord.query(1)
        assert out.hit
        assert 0 < out.latency_s < 1.0

    def test_hit_returns_cached_payload(self, system):
        coord, _, _ = system
        first = coord.query(9)
        second = coord.query(9)
        assert second.value.payload == first.value.payload

    def test_outcome_and_result_are_immutable(self, system):
        coord, _, _ = system
        miss = coord.query(5)
        hit = coord.query(5)
        for outcome in (miss, hit):
            with pytest.raises(AttributeError):
                outcome.hit = not outcome.hit
        with pytest.raises(AttributeError):
            hit.value.nbytes = 1
        assert hit.value is miss.value  # the cached ServiceResult itself

    def test_metrics_accumulate(self, system):
        coord, _, _ = system
        for k in (1, 1, 2, 3, 3, 3):
            coord.query(k)
        m = coord.metrics
        assert m.total_queries == 6
        assert m.total_hits == 3
        assert m.total_misses == 3

    def test_record_footprint_includes_overhead(self, system):
        coord, cache, _ = system
        coord.query(5)
        record = cache.get(5)
        assert record.nbytes == REC + coord.timings.record_overhead_bytes


class TestEndStep:
    def test_end_step_snapshots_state(self, system):
        coord, cache, _ = system
        coord.query(1)
        coord.end_step(cost_usd=1.23)
        step = coord.metrics.steps[-1]
        assert step.queries == 1
        assert step.node_count == cache.node_count
        assert step.cost_usd == 1.23
        assert coord.clock.step == 1

    def test_eviction_counted_through_steps(self, system):
        coord, cache, _ = system
        coord.query(7)  # miss -> cached; window records the query
        for _ in range(4):
            coord.end_step()
        assert coord.metrics.total_evictions == 1
        assert cache.get(7) is None

    def test_speedup_grows_with_reuse(self, system):
        coord, _, _ = system
        for _ in range(3):
            for k in range(5):
                coord.query(k)
            coord.end_step()
        speedups = coord.metrics.cumulative_speedup(23.0)
        assert speedups[-1] > speedups[0]
        assert speedups[-1] > 1.5
