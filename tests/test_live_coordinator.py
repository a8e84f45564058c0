"""Tests for the live coordinator: elasticity and eviction over TCP."""

import time

import pytest

from repro.core.config import EvictionConfig
from repro.faults import FailureDetector, RetryPolicy
from repro.live.client import LiveClusterClient
from repro.live.coordinator import LiveCoordinator
from repro.live.protocol import (DeadlineError, OverloadedError,
                                 ProtocolError, ServerError)
from repro.live.replica import ReplicaWriteError
from repro.live.server import LiveCacheServer


def compute(key: int) -> bytes:
    return f"derived:{key}".encode() * 3


@pytest.fixture
def small_cluster():
    """One deliberately tiny server so overflow happens fast."""
    server = LiveCacheServer(capacity_bytes=600).start()
    cluster = LiveClusterClient([server.address], ring_range=1 << 12)
    yield cluster, server
    cluster.close()
    server.stop()


class TestQueryLoop:
    def test_miss_then_hit(self, small_cluster):
        cluster, _ = small_cluster
        coord = LiveCoordinator(cluster, compute)
        first = coord.query(7)
        second = coord.query(7)
        assert first == second == compute(7)
        assert coord.stats.misses == 1 and coord.stats.hits == 1
        assert coord.stats.hit_rate == 0.5

    def test_overflow_without_spawner_raises(self, small_cluster):
        cluster, _ = small_cluster
        coord = LiveCoordinator(cluster, compute, spawn_server=None)
        with pytest.raises(ProtocolError, match="overflow"):
            for k in range(0, 4000, 40):
                coord.query(k)

    def test_overflow_grows_cluster(self, small_cluster):
        cluster, _ = small_cluster
        coord = LiveCoordinator(
            cluster, compute,
            spawn_server=lambda: LiveCacheServer(capacity_bytes=600).start())
        try:
            keys = list(range(0, 4000, 40))
            for k in keys:
                coord.query(k)
            assert coord.stats.grown_servers > 0
            assert coord.stats.migrated_records > 0
            # Everything remains served, from the grown cluster.
            for k in keys:
                assert coord.query(k) == compute(k)
        finally:
            coord.stop_spawned()

    def test_eviction_over_the_wire(self, small_cluster):
        cluster, _ = small_cluster
        coord = LiveCoordinator(
            cluster, compute,
            eviction=EvictionConfig(window_slices=2))
        coord.query(5)
        for _ in range(3):
            coord.end_slice()
        assert coord.stats.evicted == 1
        assert cluster.get(5) is None
        # Re-query recomputes.
        coord.query(5)
        assert coord.stats.misses == 2

    def test_requeried_key_survives_window(self, small_cluster):
        cluster, _ = small_cluster
        coord = LiveCoordinator(cluster, compute,
                                eviction=EvictionConfig(window_slices=2))
        coord.query(5)
        for _ in range(5):
            coord.query(5)
            coord.end_slice()
        assert cluster.get(5) is not None
        assert coord.stats.evicted == 0

    def test_stop_spawned_shuts_servers(self, small_cluster):
        cluster, _ = small_cluster
        coord = LiveCoordinator(
            cluster, compute,
            spawn_server=lambda: LiveCacheServer(capacity_bytes=600).start())
        for k in range(0, 2000, 40):
            coord.query(k)
        spawned = list(coord.spawned)
        assert spawned
        coord.stop_spawned()
        assert coord.spawned == []


def _no_growth():
    pytest.fail("a fill failure other than the primary's overflow grew "
                "the cluster")


class TestFillFailures:
    """The cache fill after a fast-path miss grows the cluster only on
    the primary's typed overflow refusal; any other failure still
    answers the query.  A failed buddy copy leaves the write cached on
    the primary (``unreplicated_writes``); every other failure drops it
    (``dropped_writes``)."""

    @pytest.mark.parametrize("error", [
        OverloadedError("overloaded"),
        DeadlineError("deadline_exceeded"),
        ProtocolError("put failed: connection reset"),
        ReplicaWriteError("replica write failed: overflow"),
        OSError("broken pipe"),
        # An ERROR reply whose text reads "overflow" is not the typed
        # OVERFLOW refusal: it must not boot a server.
        ServerError("overflow"),
    ])
    def test_failed_fill_returns_value_and_counts(self, small_cluster,
                                                  monkeypatch, error):
        cluster, _ = small_cluster

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cluster, "put", refuse)
        coord = LiveCoordinator(cluster, compute, spawn_server=_no_growth)
        assert coord.query(7) == compute(7)
        assert coord.stats.misses == 1
        if isinstance(error, ReplicaWriteError):
            # The primary holds the fill, so a prefetch cached its key.
            assert coord.prefetch(9) is True
            assert coord.stats.unreplicated_writes == 2
            assert coord.stats.dropped_writes == 0
            assert coord.stats.shed_background == 0
        else:
            assert coord.stats.dropped_writes == 1
            # Background traffic is dropped instead of answered.
            assert coord.prefetch(9) is False
            assert coord.stats.shed_background == 1
            assert coord.stats.dropped_writes == 1
            assert coord.stats.unreplicated_writes == 0
        assert coord.stats.grown_servers == 0

    def test_full_replica_namespace_does_not_grow(self):
        """A buddy whose replica namespace is full refuses the mirror
        write; that must neither boot servers nor escape ``query()``.
        The primary applied the write, so a re-query hits."""
        def boot():
            return LiveCacheServer(capacity_bytes=1 << 20,
                                   replica_headroom=0.001).start()

        def big(key: int) -> bytes:
            return key.to_bytes(8, "big") * 250  # 2000 B > 1 KiB replica

        servers = [boot() for _ in range(2)]
        cluster = LiveClusterClient([s.address for s in servers],
                                    ring_range=1 << 20, replication=True)
        coord = LiveCoordinator(cluster, big, spawn_server=boot)
        keys = [i * (1 << 17) + 1 for i in range(8)]
        try:
            for k in keys:
                assert coord.query(k) == big(k)
            assert coord.stats.grown_servers == 0
            assert coord.spawned == []
            assert coord.stats.dropped_writes == 0
            assert coord.stats.unreplicated_writes == len(keys)
            for k in keys:
                assert coord.query(k) == big(k)
            assert coord.stats.hits == len(keys)
        finally:
            coord.stop_spawned()
            cluster.close()
            for s in servers:
                s.stop()


class TestRecovery:
    def test_downtime_spans_failover_to_recovery(self):
        """``downtime_s`` is the detector's own down interval: positive
        once a failed-over shard is re-admitted, and never longer than
        the wall time from its death to its recovery."""
        def boot(port: int = 0) -> LiveCacheServer:
            return LiveCacheServer(port=port, capacity_bytes=1 << 20).start()

        servers = [boot(), boot()]
        victim = servers[1].address
        cluster = LiveClusterClient(
            [s.address for s in servers], ring_range=1 << 12, timeout=1.0,
            retry=RetryPolicy(max_attempts=2, deadline_s=1.0,
                              base_delay_s=0.01, max_delay_s=0.05))
        coord = LiveCoordinator(cluster, compute,
                                detector=FailureDetector(threshold=2))
        try:
            died = time.monotonic()
            servers[1].stop()
            for k in range(0, 1 << 12, 16):
                assert coord.query(k) == compute(k)
                if coord.stats.failovers:
                    break
            assert coord.stats.failovers == 1
            assert coord.stats.downtime_s == 0.0
            servers[1] = boot(victim[1])
            assert coord.check_recovery() == [victim]
            elapsed = time.monotonic() - died
        finally:
            cluster.close()
            for s in servers:
                s.stop()
        assert coord.stats.recoveries == 1
        assert 0.0 < coord.stats.downtime_s <= elapsed


class TestEndToEndShoreline:
    def test_real_service_through_live_stack(self):
        """Shoreline results computed once, then served from TCP cache."""
        from repro.services.ctm import CoastalTerrainModel
        from repro.services.shoreline import ShorelineExtractionService
        from repro.sfc import Linearizer
        from repro.sim import SimClock

        lin = Linearizer(nbits=5)
        service = ShorelineExtractionService(
            SimClock(), linearizer=lin, ctm=CoastalTerrainModel(grid=12))
        servers = [LiveCacheServer(capacity_bytes=1 << 20).start()
                   for _ in range(2)]
        try:
            with LiveClusterClient([s.address for s in servers],
                                   ring_range=1 << 15) as cluster:
                coord = LiveCoordinator(
                    cluster, compute=lambda k: service.compute(k)[0])
                keys = [lin.encode(x, y, 3) for x in range(6) for y in range(6)]
                for k in keys:
                    coord.query(k)
                invocations_after_first_pass = service.invocations
                for k in keys:
                    payload = coord.query(k)
                    assert service.deserialize(payload)  # real polyline
                assert service.invocations == invocations_after_first_pass
                assert coord.stats.hit_rate == 0.5
        finally:
            for s in servers:
                s.stop()


class TestEventObserver:
    def test_grow_events_are_emitted(self, small_cluster):
        cluster, _ = small_cluster
        events = []
        coord = LiveCoordinator(
            cluster, compute,
            spawn_server=lambda: LiveCacheServer(capacity_bytes=600).start(),
            on_event=lambda kind, detail: events.append((kind, detail)))
        try:
            for k in range(0, 4000, 40):
                coord.query(k)
            grows = [d for kind, d in events if kind == "grow"]
            assert len(grows) == coord.stats.grown_servers
            assert all("bucket split at" in d for d in grows)
        finally:
            coord.stop_spawned()

    def test_broken_observer_never_breaks_queries(self, small_cluster):
        cluster, _ = small_cluster

        def explode(kind, detail):
            raise ValueError("observer bug")

        coord = LiveCoordinator(
            cluster, compute,
            spawn_server=lambda: LiveCacheServer(capacity_bytes=600).start(),
            on_event=explode)
        try:
            for k in range(0, 4000, 40):
                coord.query(k)
            assert coord.stats.grown_servers > 0  # emitted, swallowed
            assert coord.query(40) == compute(40)
        finally:
            coord.stop_spawned()
