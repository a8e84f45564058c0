"""Tests for the live TCP cache cluster (real sockets on localhost)."""

import threading
import time

import pytest

from repro.live.client import LiveCacheClient, LiveClusterClient
from repro.live.protocol import OverloadedError, ProtocolError
from repro.live.server import LiveCacheServer
from tests.conftest import check_stores


@pytest.fixture
def server():
    srv = LiveCacheServer(capacity_bytes=1 << 20).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with LiveCacheClient(server.address) as c:
        yield c


class TestSingleServer:
    def test_ping(self, client):
        assert client.ping()

    def test_stop_with_open_session_is_prompt(self):
        """``stop()`` returns without waiting out a long accept poll,
        severs the open session, and joins the serving thread."""
        srv = LiveCacheServer(capacity_bytes=1 << 20).start()
        with LiveCacheClient(srv.address) as c:
            c.put(1, b"x")
            t0 = time.perf_counter()
            srv.stop()
            assert time.perf_counter() - t0 < 0.2
        assert not any(t.name == f"cache-server-{srv.address[1]}"
                       for t in threading.enumerate())

    def test_stop_without_start_returns(self):
        LiveCacheServer(capacity_bytes=1 << 20).stop()

    def test_put_get_roundtrip(self, client):
        client.put(42, b"hello shoreline")
        assert client.get(42) == b"hello shoreline"

    def test_get_missing(self, client):
        assert client.get(999) is None

    def test_binary_safety(self, client):
        payload = bytes(range(256)) * 8
        client.put(1, payload)
        assert client.get(1) == payload

    def test_overwrite_reports_freed(self, client):
        assert client.put(1, b"aaaa") == 0
        assert client.put(1, b"bb") == 4
        assert client.get(1) == b"bb"

    def test_delete(self, client):
        client.put(5, b"xyz")
        assert client.delete(5) == (True, 3)
        assert client.delete(5) == (False, 0)
        assert client.get(5) is None

    def test_overflow_rejected(self, server):
        srv = LiveCacheServer(capacity_bytes=10).start()
        try:
            with LiveCacheClient(srv.address) as c:
                c.put(1, b"1234567890")
                with pytest.raises(ProtocolError, match="overflow"):
                    c.put(2, b"x")
                # Server keeps serving after the rejected put.
                assert c.get(1) == b"1234567890"
        finally:
            srv.stop()

    def test_sweep_and_extract(self, client):
        for k in range(0, 100, 10):
            client.put(k, f"v{k}".encode())
        swept = client.sweep(15, 55)
        assert [k for k, _ in swept] == [20, 30, 40, 50]
        extracted = client.extract(15, 55)
        assert [k for k, _ in extracted] == [20, 30, 40, 50]
        assert client.get(30) is None
        assert client.get(60) is not None

    def test_stats(self, client):
        client.put(1, b"abc")
        client.get(1)
        client.get(2)
        stats = client.stats()
        assert stats["records"] == 1
        assert stats["used_bytes"] == 3
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_concurrent_clients(self, server):
        errors = []

        def worker(base):
            try:
                with LiveCacheClient(server.address) as c:
                    for i in range(50):
                        key = base * 1000 + i
                        c.put(key, f"{key}".encode())
                        assert c.get(key) == f"{key}".encode()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        with LiveCacheClient(server.address) as c:
            assert c.stats()["records"] == 200

    def test_context_manager_lifecycle(self):
        with LiveCacheServer(capacity_bytes=1024) as srv:
            with LiveCacheClient(srv.address) as c:
                assert c.ping()

    def test_client_reconnects_after_server_restart(self):
        first = LiveCacheServer(capacity_bytes=1 << 20).start()
        host, port = first.address
        client = LiveCacheClient((host, port))
        client.put(1, b"before")
        first.stop()
        # Same port, fresh (empty) server — as after a crash/redeploy.
        second = LiveCacheServer(host=host, port=port,
                                 capacity_bytes=1 << 20).start()
        try:
            assert client.ping()          # transparent reconnect
            assert client.reconnects == 1
            assert client.get(1) is None  # new server is cold
            client.put(2, b"after")
            assert client.get(2) == b"after"
        finally:
            client.close()
            second.stop()

    def test_extract_fails_cleanly_on_dead_server(self):
        """``extract`` is now two-phase (prepare + commit): against a
        dead server it surfaces a transport error once the retry budget
        is spent — and, unlike the legacy op, a replay can never lose
        records, because nothing is deleted until the commit."""
        server = LiveCacheServer(capacity_bytes=1 << 20).start()
        client = LiveCacheClient(server.address)
        client.put(1, b"x")
        server.stop()
        with pytest.raises((ProtocolError, OSError)):
            client.extract(0, 10)
        client.close()


class TestCluster:
    @pytest.fixture
    def cluster(self):
        servers = [LiveCacheServer(capacity_bytes=1 << 20).start()
                   for _ in range(3)]
        client = LiveClusterClient([s.address for s in servers],
                                   ring_range=1 << 16)
        yield client, servers
        client.close()
        for s in servers:
            s.stop()

    def test_routing_spreads_keys(self, cluster):
        client, servers = cluster
        for k in range(0, 60000, 500):
            client.put(k, f"{k}".encode())
        populated = sum(1 for s in servers if len(s.store.records) > 0)
        assert populated == 3

    def test_all_keys_retrievable(self, cluster):
        client, _ = cluster
        keys = list(range(0, 60000, 777))
        for k in keys:
            client.put(k, f"payload-{k}".encode())
        for k in keys:
            assert client.get(k) == f"payload-{k}".encode()

    def test_delete_routed(self, cluster):
        client, _ = cluster
        client.put(123, b"x")
        assert client.delete(123)
        assert client.get(123) is None
        assert not client.delete(123)

    def test_add_server_migrates_interval(self, cluster):
        client, servers = cluster
        keys = list(range(0, 60000, 300))
        for k in keys:
            client.put(k, f"{k}".encode())

        new_server = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            # Split the middle of the first bucket's interval.
            bucket = (1 << 16) // 6
            moved = client.add_server(new_server.address, bucket)
            assert moved > 0
            assert len(new_server.store.records) == moved
            # Every key still resolves through the grown ring.
            for k in keys:
                assert client.get(k) == f"{k}".encode(), f"lost {k}"
            check_stores(servers + [new_server])
        finally:
            new_server.stop()

    def test_remove_server_drains_to_survivors(self, cluster):
        client, servers = cluster
        keys = list(range(0, 60000, 450))
        for k in keys:
            client.put(k, f"{k}".encode())
        victim_addr = servers[1].address
        had = len(servers[1].store.records)
        moved = client.remove_server(victim_addr)
        assert moved >= had
        assert len(client.clients) == 2
        # Every key still served by the shrunken cluster.
        for k in keys:
            assert client.get(k) == f"{k}".encode(), f"lost {k}"
        assert len(servers[1].store.records) == 0  # drained
        check_stores(servers)

    def test_remove_last_server_rejected(self):
        server = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            with LiveClusterClient([server.address]) as client:
                with pytest.raises(ValueError, match="last server"):
                    client.remove_server(server.address)
        finally:
            server.stop()

    def test_remove_unknown_server_rejected(self, cluster):
        client, _ = cluster
        with pytest.raises(ValueError, match="not in the cluster"):
            client.remove_server(("127.0.0.1", 1))

    def test_grow_then_shrink_roundtrip(self, cluster):
        client, servers = cluster
        keys = list(range(0, 60000, 777))
        for k in keys:
            client.put(k, b"x")
        extra = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            client.add_server(extra.address, (1 << 16) // 3)
            client.remove_server(extra.address)
            for k in keys:
                assert client.get(k) == b"x"
            assert len(client.clients) == 3
            check_stores(servers + [extra])
        finally:
            extra.stop()

    def test_duplicate_server_rejected(self, cluster):
        client, servers = cluster
        with pytest.raises(ValueError):
            client.add_server(servers[0].address, 1234)

    def test_cluster_stats(self, cluster):
        client, _ = cluster
        client.put(1, b"abc")
        stats = client.cluster_stats()
        assert len(stats) == 3
        assert sum(s["records"] for s in stats.values()) == 1


class TestReshapeFailures:
    """A reshape that fails part-way loses no acked key, leaves no
    transfer pending, and calling it again finishes the job."""

    RING = 1 << 16
    KEYS = list(range(0, 60000, 150))

    @pytest.fixture
    def fleet(self):
        servers = [LiveCacheServer(capacity_bytes=1 << 20).start()
                   for _ in range(3)]
        client = LiveClusterClient([s.address for s in servers],
                                   ring_range=self.RING)
        for k in self.KEYS:
            client.put(k, f"{k}".encode())
        yield client, servers
        client.close()
        for s in servers:
            s.stop()

    def assert_all_keys_read_back(self, client):
        lost = [k for k in self.KEYS if client.get(k) != f"{k}".encode()]
        assert not lost, f"{len(lost)} of {len(self.KEYS)} acked keys lost"

    def test_add_server_refused_prepare_changes_nothing(self, fleet,
                                                        monkeypatch):
        client, servers = fleet
        bucket = self.RING // 6
        src = client.clients[client.address_for(bucket)]

        def refuse(*args, **kwargs):
            raise OverloadedError("shed")

        monkeypatch.setattr(src, "extract_prepare", refuse)
        ring_before = dict(client.ring.node_map)
        extra = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            with pytest.raises(OverloadedError):
                client.add_server(extra.address, bucket)
            assert client.ring.node_map == ring_before
            assert extra.address not in client.clients
            self.assert_all_keys_read_back(client)
            check_stores(servers + [extra])
        finally:
            extra.stop()

    def _overflow_successor(self, servers):
        """Leave the victim's successor room for a few records only."""
        store = servers[2].store.records
        store.capacity_bytes = store.used_bytes + 64
        return store

    def test_failed_copy_leaves_no_transfer_pending(self, fleet):
        client, servers = fleet
        victim = client.clients[servers[1].address]
        self._overflow_successor(servers)
        with pytest.raises(ProtocolError, match="overflow"):
            client.remove_server(servers[1].address)
        assert victim.stats()["transfers_pending"] == 0
        self.assert_all_keys_read_back(client)
        check_stores(servers)

    def test_remove_server_retry_finishes_pending_moves(self, fleet):
        client, servers = fleet
        successor = self._overflow_successor(servers)
        with pytest.raises(ProtocolError, match="overflow"):
            client.remove_server(servers[1].address)
        left = len(servers[1].store.records)
        successor.capacity_bytes = 1 << 20      # capacity freed
        # The first call's partial copy landed; the rest moves now.
        assert 0 < client.remove_server(servers[1].address) < left
        assert len(servers[1].store.records) == 0
        servers[1].stop()                       # instance terminated
        assert servers[1].address not in client.clients
        self.assert_all_keys_read_back(client)
        check_stores(servers)

    def test_remove_server_retry_after_growth_split_the_range(self, fleet):
        # Between the failed call and its retry, growth splits the
        # pending range: each part must move to its own current owner.
        client, servers = fleet
        successor = self._overflow_successor(servers)
        lo, hi = client.ring.interval_segments(
            client.ring.buckets_of(servers[1].address)[0])[0]
        with pytest.raises(ProtocolError, match="overflow"):
            client.remove_server(servers[1].address)
        successor.capacity_bytes = 1 << 20
        extra = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            client.add_server(extra.address, (lo + hi) // 2)
            client.remove_server(servers[1].address)
            servers[1].stop()
            self.assert_all_keys_read_back(client)
            check_stores(servers + [extra])
        finally:
            extra.stop()

    def test_remove_server_owning_adjacent_buckets(self, fleet):
        # A failover leaves one server owning two adjacent buckets;
        # dropping the first folds its interval into the second, so
        # that move lands on the victim itself and must not commit.
        client, servers = fleet
        servers[0].stop()
        client.fail_server(servers[0].address)
        for k in self.KEYS:                     # the outage recomputes
            client.put(k, f"{k}".encode())
        victim = servers[1].address
        assert len(client.ring.buckets_of(victim)) == 2
        client.remove_server(victim)
        servers[1].stop()
        self.assert_all_keys_read_back(client)
        check_stores(servers)
