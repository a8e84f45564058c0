"""Unit tests for the metrics recorder."""

import pytest

from repro.core.metrics import MetricsRecorder


def record_steps(recorder, steps):
    """steps: list of (hits, misses, latency_per_query)."""
    for i, (hits, misses, lat) in enumerate(steps):
        for _ in range(hits):
            recorder.record_query(hit=True, latency_s=lat)
        for _ in range(misses):
            recorder.record_query(hit=False, latency_s=lat)
        recorder.end_step(step=i, node_count=1, used_bytes=0,
                          capacity_bytes=100, sim_time_s=float(i),
                          cost_usd=0.1 * i)


class TestAccumulation:
    def test_totals(self):
        m = MetricsRecorder()
        record_steps(m, [(2, 1, 1.0), (3, 0, 1.0)])
        assert m.total_queries == 6
        assert m.total_hits == 5
        assert m.overall_hit_rate == pytest.approx(5 / 6)

    def test_step_stats(self):
        m = MetricsRecorder()
        record_steps(m, [(2, 2, 0.5)])
        s = m.steps[0]
        assert s.queries == 4
        assert s.hit_rate == 0.5
        assert s.mean_latency_s == pytest.approx(0.5)

    def test_empty_step_defaults(self):
        m = MetricsRecorder()
        m.end_step(step=0, node_count=2, used_bytes=0, capacity_bytes=0,
                   sim_time_s=0.0, cost_usd=0.0)
        assert m.steps[0].mean_latency_s == 0.0
        assert m.steps[0].hit_rate == 0.0

    def test_eviction_and_split_hooks(self):
        m = MetricsRecorder()
        m.record_eviction(5, 8)
        m.record_split(allocated=True)
        m.record_split(allocated=False)
        m.record_merge()
        m.end_step(step=0, node_count=1, used_bytes=0, capacity_bytes=0,
                   sim_time_s=0.0, cost_usd=0.0)
        s = m.steps[0]
        assert s.evictions == 5 and s.eviction_candidates == 8
        assert s.splits == 2 and s.allocations == 1 and s.merges == 1


class TestSpeedups:
    def test_cumulative_speedup_all_misses_is_about_one(self):
        m = MetricsRecorder()
        record_steps(m, [(0, 10, 23.0)])
        assert m.cumulative_speedup(23.0)[-1] == pytest.approx(1.0)

    def test_cumulative_speedup_with_hits(self):
        m = MetricsRecorder()
        record_steps(m, [(0, 1, 23.0), (9, 0, 1.0)])
        # total baseline 10*23, total observed 23+9 = 32
        assert m.cumulative_speedup(23.0)[-1] == pytest.approx(230 / 32)

    def test_windowed_speedup_reacts_locally(self):
        m = MetricsRecorder()
        record_steps(m, [(0, 5, 23.0)] * 5 + [(5, 0, 0.5)] * 5)
        w = m.windowed_speedup(23.0, window_steps=2)
        assert w[4] == pytest.approx(1.0)
        assert w[-1] == pytest.approx(46.0)

    def test_interval_speedup_covers_all_queries(self):
        m = MetricsRecorder()
        record_steps(m, [(1, 1, 1.0)] * 10)
        points = m.interval_speedup(23.0, interval_queries=6)
        assert points[-1][0] == 20  # all queries accounted
        assert all(sp > 1 for _, sp in points)


class TestSeries:
    def test_series_extraction(self):
        m = MetricsRecorder()
        record_steps(m, [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)])
        assert m.series("hits").tolist() == [1.0, 2.0, 3.0]
        assert m.series("cost_usd").tolist() == [0.0, 0.1, 0.2]

    def test_mean_node_count(self):
        m = MetricsRecorder()
        for i, n in enumerate([1, 2, 3]):
            m.end_step(step=i, node_count=n, used_bytes=0, capacity_bytes=0,
                       sim_time_s=0.0, cost_usd=0.0)
        assert m.mean_node_count() == pytest.approx(2.0)

    def test_summary_keys(self):
        m = MetricsRecorder()
        record_steps(m, [(1, 1, 1.0)])
        summary = m.summary(23.0)
        for key in ("queries", "hits", "misses", "hit_rate", "evictions",
                    "final_speedup", "mean_nodes", "max_nodes",
                    "final_cost_usd"):
            assert key in summary

    def test_empty_recorder_summary(self):
        summary = MetricsRecorder().summary(23.0)
        assert summary["queries"] == 0
        assert summary["final_speedup"] == 1.0


class TestLatencyPercentiles:
    def test_requires_opt_in(self):
        m = MetricsRecorder()
        m.record_query(hit=True, latency_s=1.0)
        with pytest.raises(RuntimeError):
            m.latency_percentiles()

    def test_percentiles_from_queries(self):
        m = MetricsRecorder(keep_latencies=True)
        for lat in [1.0] * 98 + [50.0, 100.0]:
            m.record_query(hit=True, latency_s=lat)
        p = m.latency_percentiles((50, 99, 100))
        assert p[50] == pytest.approx(1.0)
        assert p[100] == pytest.approx(100.0)
        assert p[99] > 1.0

    def test_empty_latencies(self):
        m = MetricsRecorder(keep_latencies=True)
        assert m.latency_percentiles((50,)) == {50: 0.0}

    def test_coordinator_can_keep_latencies(self, cloud, network):
        from repro.core.coordinator import Coordinator
        from repro.services.base import SyntheticService
        from tests.conftest import make_cache

        cache = make_cache(cloud, network, capacity_bytes=1 << 20)
        coord = Coordinator(cache=cache, service=SyntheticService(cloud.clock),
                            clock=cloud.clock, network=network,
                            metrics=MetricsRecorder(keep_latencies=True))
        coord.query(1)  # miss ~23 s
        coord.query(1)  # hit < 1 s
        p = coord.metrics.latency_percentiles((0, 100))
        assert p[0] < 1.0 and p[100] >= 23.0


class TestThreadSafety:
    """Hammer the recorder from many threads; every count must land.

    Before the internal lock, this lost increments (racing ``+=``) and
    orphaned whole steps (two threads both creating ``_open``), and
    ``summary()`` could catch ``hits + misses != queries`` mid-update.
    """

    def test_concurrent_hooks_lose_nothing(self):
        import threading

        m = MetricsRecorder()
        per_thread, n_threads = 400, 8
        start = threading.Barrier(n_threads)

        def hammer(tid):
            start.wait()
            for i in range(per_thread):
                m.record_query(hit=i % 2 == 0, latency_s=0.001)
                if i % 7 == 0:
                    m.record_eviction(2, 5)
                if i % 11 == 0:
                    m.record_split(allocated=i % 2 == 0)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        m.end_step(step=0, node_count=1, used_bytes=0, capacity_bytes=1,
                   sim_time_s=0.0, cost_usd=0.0)

        total = per_thread * n_threads
        evicting = n_threads * len(range(0, per_thread, 7))
        splitting = range(0, per_thread, 11)
        assert m.total_queries == total
        assert m.total_hits == total // 2
        assert m.total_misses == total // 2
        assert m.total_evictions == 2 * evicting
        # Exactly one step absorbed everything; none were orphaned.
        assert len(m.steps) == 1
        s = m.steps[0]
        assert s.queries == total
        assert s.hits + s.misses == total
        assert s.evictions == 2 * evicting
        assert s.eviction_candidates == 5 * evicting
        assert s.splits == n_threads * len(splitting)
        assert s.allocations == n_threads * sum(
            1 for i in splitting if i % 2 == 0)

    def test_snapshot_is_internally_consistent_mid_hammer(self):
        import threading

        m = MetricsRecorder()
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                m.record_query(hit=i % 3 == 0, latency_s=0.0)
                i += 1

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for w in workers:
            w.start()
        try:
            for _ in range(200):
                s = m.summary(baseline_s=1.0)
                # A torn read shows up as hits+misses drifting off queries.
                assert s["hits"] + s["misses"] == s["queries"]
        finally:
            stop.set()
            for w in workers:
                w.join()
