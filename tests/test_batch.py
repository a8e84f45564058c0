"""Tests for the batched + pipelined hot path.

Covers the multi-key wire ops (``multi_get``/``multi_put``), the
client-side pipelining and suffix-retry rules, the scatter-gather
cluster fan-out (per-shard degradation, shared deadline budget, one
thread, no lock-order deadlock), the one-lock indexed store, and the
interplay with the overload layer (shed, deadlines, mid-batch
connection kill).
"""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.retry import RetryPolicy
from repro.live.client import LiveCacheClient, LiveClusterClient
from repro.live.protocol import (MAX_BATCH, CapacityError, DeadlineError,
                                 OverloadedError)
from repro.live.server import LiveCacheServer
from tests.conftest import check_stores


@pytest.fixture
def server():
    srv = LiveCacheServer(capacity_bytes=1 << 22).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with LiveCacheClient(server.address) as c:
        yield c


class TestMultiOpsSingleServer:
    def test_multi_put_then_multi_get(self, client):
        items = [(k, f"v{k}".encode()) for k in range(200)]
        result = client.multi_put(items)
        assert result.ok and result.acked == 200
        got = client.multi_get([k for k, _ in items] + [999])
        assert len(got) == 200
        assert got[7] == b"v7"
        assert 999 not in got

    def test_empty_batches(self, client):
        assert client.multi_get([]) == {}
        result = client.multi_put([])
        assert result.ok and result.acked == 0

    def test_multi_get_preserves_binary_payloads(self, client):
        payload = bytes(range(256)) * 64  # 16 KiB — crosses inline limit
        client.multi_put([(1, payload), (2, b""), (3, b"\x00")])
        got = client.multi_get([1, 2, 3])
        assert got[1] == payload
        assert got[3] == b"\x00"
        assert 2 in got and got[2] == b""

    def test_multi_put_reports_freed_overwrites(self, client):
        client.put(5, b"aaaa")
        result = client.multi_put([(5, b"bb"), (6, b"cc")])
        assert result.ok
        assert result.freed == {5: 4}

    def test_chunking_and_pipelining_over_max_batch(self, server):
        """Batches larger than the wire cap chunk transparently and the
        chunks pipeline; results are identical to per-key ops."""
        with LiveCacheClient(server.address, max_batch=7,
                             pipeline_depth=3) as c:
            items = [(k, f"x{k}".encode()) for k in range(100)]
            result = c.multi_put(items)
            assert result.ok and result.acked == 100
            got = c.multi_get(list(range(100)))
            assert got == dict(items)
        stats = LiveCacheClient(server.address).stats()
        assert stats["multi_ops"] == 30  # ceil(100/7) = 15, puts + gets
        assert stats["max_batch"] == 7

    def test_mixed_with_single_ops_on_same_connection(self, client):
        client.multi_put([(k, b"m") for k in range(10)])
        client.put(100, b"single")
        assert client.get(3) == b"m"
        got = client.multi_get([100, 3])
        assert got == {100: b"single", 3: b"m"}

    def test_multi_put_overflow_reports_acked_prefix(self):
        server = LiveCacheServer(capacity_bytes=30).start()
        try:
            with LiveCacheClient(server.address) as c:
                result = c.multi_put([(k, b"0123456789") for k in range(5)])
                assert not result.ok
                assert "overflow" in str(result.error)
                # Whatever was acknowledged is really there.
                assert result.acked == 3
                got = c.multi_get(result.stored)
                assert len(got) == len(result.stored)
        finally:
            server.stop()

    def test_multi_put_lists_keys_applied_after_a_refusal(self):
        """A chunk already in flight when an earlier one overflowed may
        still apply some keys before it overflows too: ``stored`` lists
        them as well."""
        server = LiveCacheServer(capacity_bytes=300).start()
        try:
            with LiveCacheClient(server.address, max_batch=2) as c:
                result = c.multi_put([(1, b"a" * 400), (5, b"b"),
                                      (2, b"c" * 10), (3, b"d" * 400)])
                assert isinstance(result.error, CapacityError)
                assert result.stored == [2]
                assert c.multi_get([1, 2, 3, 5]) == {2: b"c" * 10}
        finally:
            server.stop()

    def test_batch_counters_in_stats(self, client):
        client.multi_put([(k, b"s") for k in range(32)])
        client.multi_get(list(range(16)))
        stats = client.stats()
        assert stats["multi_ops"] == 2
        assert stats["batched_keys"] == 48
        assert stats["max_batch"] == 32

    def test_replica_batches_not_counted_as_primary(self, server, client):
        client.multi_put([(k, b"r") for k in range(20)], replica=True)
        assert len(client.multi_get(list(range(20)), replica=True)) == 20
        stats = client.stats()
        assert stats["replica"]["records"] == 20
        assert stats["records"] == 0
        assert (stats["multi_ops"], stats["batched_keys"]) == (0, 0)
        replica = server.replica_store
        assert (replica.multi_ops, replica.batched_keys) == (2, 40)


class TestStriping:
    """The store that replaced lock striping — one dict point index plus
    one B+-tree ordered index per namespace, under one lock — keeps the
    striped store's contract: the same answers, sorted range ops, and
    no lost writes under concurrent batches."""

    @pytest.mark.parametrize("order", [3, 8, 64])
    def test_semantics_identical_across_tree_orders(self, order):
        """Deep trees (order 3 splits and merges constantly) and flat
        ones keep the point index and the ordered index in step."""
        server = LiveCacheServer(capacity_bytes=1 << 20,
                                 order=order).start()
        try:
            with LiveCacheClient(server.address) as c:
                c.multi_put([(k, f"{k}".encode()) for k in range(50)])
                assert c.delete(10) == (True, 2)
                swept = c.sweep(0, 49)
                assert [k for k, _ in swept] == [k for k in range(50)
                                                 if k != 10]
                assert c.stats()["records"] == 49
        finally:
            server.stop()

    def test_sweep_sorted_across_stripes(self, client):
        keys = [977, 3, 500, 123, 42, 860]
        client.multi_put([(k, b"z") for k in keys])
        swept = client.sweep(0, 1000)
        assert [k for k, _ in swept] == sorted(keys)

    def test_extract_roundtrip_across_stripes(self, client):
        client.multi_put([(k, f"{k}".encode()) for k in range(0, 100, 10)])
        extracted = client.extract(15, 75)
        assert [k for k, _ in extracted] == [20, 30, 40, 50, 60, 70]
        assert client.get(30) is None
        assert client.get(80) is not None

    def test_concurrent_disjoint_writers(self, server):
        """Writers on different keys never corrupt the shared store."""
        errors = []

        def worker(base):
            try:
                with LiveCacheClient(server.address) as c:
                    res = c.multi_put([(base * 1000 + i, b"w" * 32)
                                       for i in range(100)])
                    assert res.ok
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with LiveCacheClient(server.address) as c:
            assert c.stats()["records"] == 800


class TestSuffixRetry:
    def test_reconnect_resends_unacknowledged_suffix(self, server):
        """A connection kill mid-batch loses no acknowledged writes: the
        client reconnects and completes, and every record is present."""
        with LiveCacheClient(server.address, max_batch=10) as c:
            c.multi_put([(k, b"seed") for k in range(20)])
            # Sever the session server-side; the client's socket is now
            # stale, so the next batch hits a transport error mid-flight
            # and must resume from the unacknowledged suffix.
            server.sever()
            items = [(k, f"n{k}".encode()) for k in range(50)]
            result = c.multi_put(items)
            assert result.ok
            assert c.reconnects >= 1
            got = c.multi_get(list(range(50)))
            assert got == dict(items)

    def test_multi_get_retries_after_kill(self, server):
        with LiveCacheClient(server.address, max_batch=8) as c:
            c.multi_put([(k, b"r") for k in range(40)])
            server.sever()
            got = c.multi_get(list(range(40)))
            assert len(got) == 40
            assert c.retries >= 1

    def test_acknowledged_writes_survive_server_restart_mid_stream(self):
        """Whatever multi_put acknowledged before a hard server stop is
        queryable on the same store (acks are post-apply)."""
        server = LiveCacheServer(capacity_bytes=1 << 22).start()
        client = LiveCacheClient(server.address, max_batch=4,
                                 retry=RetryPolicy(max_attempts=2,
                                                   deadline_s=0.5))
        result = client.multi_put([(k, b"a") for k in range(12)])
        assert result.ok
        server.stop()
        late = client.multi_put([(k, b"b") for k in range(12, 24)])
        assert not late.ok  # dead server: error surfaced, not a hang
        client.close()


class TestBatchedOverloadInterplay:
    def test_batch_sheds_cleanly_under_gate_pressure(self):
        """A batch refused by the admission gate surfaces as a typed
        OverloadedError and leaves the stream usable (framing intact)."""
        server = LiveCacheServer(capacity_bytes=1 << 22, max_workers=1,
                                 max_queue=0, op_delay_s=0.3).start()
        try:
            blocker = LiveCacheClient(server.address)
            done = threading.Event()

            def occupy():
                blocker.put(1, b"slow")
                done.set()

            t = threading.Thread(target=occupy)
            t.start()
            time.sleep(0.05)  # let the slow put take the only slot
            with LiveCacheClient(server.address,
                                 retry=RetryPolicy.none()) as c:
                with pytest.raises(OverloadedError):
                    c.multi_get(list(range(10)))
                result = c.multi_put([(k, b"x") for k in range(10)])
                assert isinstance(result.error, OverloadedError)
                assert result.acked == 0
                done.wait(2)
                # Same connection still serves once pressure clears.
                assert c.multi_put([(99, b"ok")]).ok
            t.join()
            blocker.close()
        finally:
            server.stop()

    def test_batch_respects_deadline(self):
        """An already-spent budget never goes on the wire."""
        server = LiveCacheServer(capacity_bytes=1 << 22).start()
        try:
            with LiveCacheClient(server.address) as c:
                with pytest.raises(DeadlineError):
                    c.multi_get(list(range(10)), deadline_ms=-1)
                result = c.multi_put([(1, b"x")], deadline_ms=-1)
                assert isinstance(result.error, DeadlineError)
                assert result.acked == 0
        finally:
            server.stop()

    def test_server_side_deadline_mid_batch_reports_partial(self):
        """The server checks the budget before it applies a batch; a
        batch that expires answers with its acked prefix."""
        server = LiveCacheServer(capacity_bytes=1 << 22,
                                 op_delay_s=0.15).start()
        try:
            with LiveCacheClient(server.address,
                                 retry=RetryPolicy.none()) as c:
                result = c.multi_put([(k, b"d") for k in range(4)],
                                     deadline_ms=100)
                assert isinstance(result.error, DeadlineError)
                # Acked records (if any) are really applied.
                if result.stored:
                    got = c.multi_get(result.stored)
                    assert len(got) == len(result.stored)
        finally:
            server.stop()


class TestClusterFanOut:
    @pytest.fixture
    def cluster(self):
        servers = [LiveCacheServer(capacity_bytes=1 << 22).start()
                   for _ in range(3)]
        client = LiveClusterClient(
            [s.address for s in servers], ring_range=1 << 16,
            retry=RetryPolicy(max_attempts=2, deadline_s=1.0), timeout=2.0)
        yield client, servers
        client.close()
        for s in servers:
            s.stop()

    def test_put_many_get_many_roundtrip(self, cluster):
        client, servers = cluster
        items = [(k, f"c{k}".encode()) for k in range(0, 60000, 250)]
        stored = client.put_many(items)
        assert stored == len(items)
        got = client.get_many([k for k, _ in items] + [1, 2, 3])
        assert got == dict(items)
        # The batch actually spread over every shard.
        assert all(len(s.store.records) > 0 for s in servers)

    def test_get_many_degrades_per_shard(self, cluster):
        client, servers = cluster
        keys = list(range(0, 60000, 200))
        client.put_many([(k, b"x") for k in keys])
        dead_keys = {k for k in keys
                     if client.address_for(k) == servers[1].address}
        assert dead_keys  # the dead shard owns part of the batch
        servers[1].stop()
        got = client.get_many(keys)
        assert set(got) == set(keys) - dead_keys
        assert client.batch_shard_failures >= 1

    def test_shared_deadline_budget(self, cluster):
        client, _ = cluster
        keys = list(range(0, 60000, 300))
        client.put_many([(k, b"x") for k in keys])
        # A spent budget degrades the whole fan-out to misses — the
        # batch answers (empty), it does not raise or hang.
        assert client.get_many(keys, deadline_ms=-1) == {}

    def test_add_server_migration_rides_batches(self, cluster):
        client, servers = cluster
        keys = list(range(0, 60000, 300))
        client.put_many([(k, f"{k}".encode()) for k in keys])
        extra = LiveCacheServer(capacity_bytes=1 << 22).start()
        try:
            moved = client.add_server(extra.address, (1 << 16) // 6)
            assert moved > 0
            assert len(extra.store.records) == moved
            # The copy arrived as multi_put batches, not per-key puts.
            with LiveCacheClient(extra.address) as probe:
                assert probe.stats()["multi_ops"] >= 1
            got = client.get_many(keys)
            assert len(got) == len(keys)
            check_stores(servers + [extra])
        finally:
            extra.stop()

    def test_remove_server_drains_batched(self, cluster):
        client, servers = cluster
        keys = list(range(0, 60000, 450))
        client.put_many([(k, f"{k}".encode()) for k in keys])
        moved = client.remove_server(servers[1].address)
        assert moved >= 0
        assert len(servers[1].store.records) == 0
        got = client.get_many(keys)
        assert len(got) == len(keys)
        check_stores(servers)


class TestSingleThreadFanOut:
    """The cluster fan-out sends to every shard, then drains each in
    turn, all on the calling thread."""

    @staticmethod
    def _cluster(retry=None, **server_kw):
        servers = [LiveCacheServer(capacity_bytes=1 << 22,
                                   **server_kw).start() for _ in range(3)]
        client = LiveClusterClient(
            [s.address for s in servers], ring_range=1 << 16,
            retry=retry or RetryPolicy(max_attempts=2, deadline_s=1.0),
            timeout=2.0)
        return client, servers

    @staticmethod
    def _close(client, servers):
        client.close()
        for s in servers:
            s.stop()

    def test_shards_overlap_without_new_threads(self, monkeypatch):
        """With 0.2 s of service time per op, a batch over three shards
        costs one service time, not three — and starts no thread."""
        client, servers = self._cluster(op_delay_s=0.2)
        try:
            keys = list(range(0, 60000, 600))
            assert len(client._group_by_owner(keys)) == 3
            for c in client.clients.values():
                c.ping()  # every server's session thread is up
            started = []
            real_start = threading.Thread.start

            def spy(thread):
                started.append(thread.name)
                real_start(thread)

            monkeypatch.setattr(threading.Thread, "start", spy)
            t0 = time.perf_counter()
            assert client.put_many([(k, b"p") for k in keys]) == len(keys)
            put_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            got = client.get_many(keys)
            get_s = time.perf_counter() - t0
            assert got == {k: b"p" for k in keys}
            assert put_s < 0.45 and get_s < 0.45, (put_s, get_s)
            assert started == []
        finally:
            self._close(client, servers)

    @pytest.mark.timeout(60)
    def test_shared_client_threads_do_not_deadlock(self):
        """Four threads mix batched and single ops over every shard of
        one client; each reads back exactly its own bytes."""
        client, servers = self._cluster()
        errors: list = []

        def worker(t):
            try:
                keys = list(range(t, 60000, 4 * 151))
                for i in range(15):
                    items = [(k, f"{t}:{i}:{k}".encode()) for k in keys]
                    assert client.put_many(items) == len(items)
                    assert client.get_many(keys) == dict(items)
                    k = keys[i % len(keys)]
                    client.put(k, f"single {i}".encode())
                    assert client.get(k) == f"single {i}".encode()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,), daemon=True)
                   for t in range(4)]
        for t in threads:
            t.start()
        give_up = time.monotonic() + 30
        for t in threads:
            t.join(timeout=max(0.0, give_up - time.monotonic()))
        if any(t.is_alive() for t in threads):
            # Deadlocked threads hold connection locks close() needs.
            for s in servers:
                s.stop()
            pytest.fail("fan-outs deadlocked on connection locks")
        self._close(client, servers)
        assert errors == []
        assert client.batch_shard_failures == 0

    @pytest.mark.timeout(60)
    def test_shard_failure_count_is_exact_under_threads(self):
        """Every degraded shard branch is counted once, however many
        threads fan out at once (a lost ``+=`` would undercount)."""
        client, servers = self._cluster(retry=RetryPolicy.none())
        keys = list(range(0, 60000, 600))
        servers[1].stop()  # one shard of every batch now fails
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(
                target=lambda: [client.get_many(keys) for _ in range(25)],
                daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            give_up = time.monotonic() + 30
            for t in threads:
                t.join(timeout=max(0.0, give_up - time.monotonic()))
            assert not any(t.is_alive() for t in threads)
            assert client.batch_shard_failures == 4 * 25
        finally:
            sys.setswitchinterval(saved)
            self._close(client, servers)

    @pytest.mark.parametrize("retried", [True, False])
    def test_connection_dies_between_send_and_drain(self, monkeypatch,
                                                    retried):
        """The victim shard alone is retried (resent on a fresh
        connection) or, without retries, degraded to misses; every
        other shard's keys come back either way."""
        client, servers = self._cluster(
            retry=None if retried else RetryPolicy.none())
        try:
            keys = list(range(0, 60000, 300))
            client.put_many([(k, f"{k}".encode()) for k in keys])
            victim = client.clients[servers[1].address]
            send = victim.send_multi_get

            def send_then_die(*args, **kwargs):
                drain = send(*args, **kwargs)
                victim._sock.close()  # request out, reply unreadable
                return drain

            monkeypatch.setattr(victim, "send_multi_get", send_then_die)
            got = client.get_many(keys)
            lost = {k for k in keys
                    if client.address_for(k) == servers[1].address}
            assert lost
            if retried:
                assert got == {k: f"{k}".encode() for k in keys}
                assert victim.retries == 1
                assert client.batch_shard_failures == 0
            else:
                assert got == {k: f"{k}".encode() for k in keys
                               if k not in lost}
                assert client.batch_shard_failures == 1
        finally:
            self._close(client, servers)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(keys=st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1),
                     min_size=1, max_size=60, unique=True),
       batch=st.integers(min_value=1, max_value=MAX_BATCH))
def test_property_batched_equals_per_key(keys, batch):
    """``put_many`` then ``get_many`` over a random key set equals
    per-key put/get, for random wire batch sizes."""
    servers = [LiveCacheServer(capacity_bytes=1 << 22).start()
               for _ in range(2)]
    try:
        batched = LiveClusterClient([s.address for s in servers],
                                    ring_range=1 << 16)
        for addr in batched.clients:
            batched.clients[addr].max_batch = batch
        items = [(k, f"val-{k}".encode()) for k in keys]
        assert batched.put_many(items) == len(items)
        via_batch = batched.get_many(keys)
        via_single = {k: batched.get(k) for k in keys}
        assert via_batch == {k: v for k, v in via_single.items()
                             if v is not None}
        assert via_batch == dict(items)
        batched.close()
    finally:
        for s in servers:
            s.stop()
