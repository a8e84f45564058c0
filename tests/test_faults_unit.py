"""Fast unit tests for the fault subsystem (tier-1).

Covers the pieces the chaos suite exercises end-to-end: retry policy
mechanics, failure detection, fault plans, the fault proxy, and the
client-level retry rules — including the regression tests for "``put``
retries transparently", "range streams retry a lost connection" and
"a typed refusal is never resent".
"""

import random
import socket
import threading
import time

import pytest

from repro.faults import (FailureDetector, FaultEvent, FaultPlan, FaultProxy,
                          RetryPolicy, call_with_retry)
from repro.live.client import LiveCacheClient, LiveClusterClient
from repro.live.protocol import (DEADLINE, ERROR, OVERLOADED, PING, REFUSALS,
                                 DeadlineError, Frame, FrameReader,
                                 OverloadedError, ProtocolError, ServerError,
                                 send_frame)
from repro.live.server import LiveCacheServer
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue

FAST = RetryPolicy(max_attempts=3, deadline_s=2.0, base_delay_s=0.005,
                   max_delay_s=0.02)


# ------------------------------------------------------------------- retry


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows_and_clamps(self):
        p = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3,
                        jitter=0.0)
        assert p.backoff_s(1) == pytest.approx(0.1)
        assert p.backoff_s(2) == pytest.approx(0.2)
        assert p.backoff_s(3) == pytest.approx(0.3)  # clamped
        assert p.backoff_s(9) == pytest.approx(0.3)

    def test_jitter_stays_in_band(self):
        p = RetryPolicy(base_delay_s=0.1, multiplier=1.0, max_delay_s=1.0,
                        jitter=0.5)
        rng = random.Random(7)
        for _ in range(50):
            d = p.backoff_s(1, rng)
            assert 0.05 <= d <= 0.15

    def test_none_policy_single_attempt(self):
        calls = []

        def fn():
            calls.append(1)
            raise OSError("x")

        with pytest.raises(OSError):
            call_with_retry(fn, RetryPolicy.none())
        assert len(calls) == 1

    def test_on_retry_fires_per_scheduled_retry(self):
        notes = []
        state = {"n": 0}

        def fn():
            state["n"] += 1
            if state["n"] < 3:
                raise OSError("flap")
            return state["n"]

        now = [0.0]
        out = call_with_retry(
            fn, RetryPolicy(max_attempts=5, base_delay_s=0.0),
            clock=lambda: now[0], sleep=lambda d: None,
            on_retry=lambda n, exc: notes.append(n))
        assert out == 3
        assert notes == [1, 2]


# ---------------------------------------------------------------- detector


class TestFailureDetector:
    def test_threshold_and_reset(self):
        d = FailureDetector(threshold=3, clock=lambda: 0.0)
        assert not d.record_failure("a")
        assert not d.record_failure("a")
        d.record_success("a")  # streak broken
        assert not d.record_failure("a")
        assert not d.record_failure("a")
        assert d.record_failure("a")  # third consecutive
        assert d.is_down("a")
        assert d.down == ["a"]

    def test_success_does_not_auto_revive(self):
        d = FailureDetector(threshold=1, clock=lambda: 0.0)
        assert d.record_failure("a")
        d.record_success("a")
        assert d.is_down("a")  # revival is an explicit repair decision

    def test_downtime_measured(self):
        t = [0.0]
        d = FailureDetector(threshold=1, clock=lambda: t[0])
        d.record_failure("a")
        t[0] = 7.5
        assert d.mark_recovered("a") == pytest.approx(7.5)
        assert not d.is_down("a")
        assert d.mark_recovered("never-down") == 0.0


# -------------------------------------------------------------------- plan


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=1.0, kind="meteor")
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, kind="crash")
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, kind="flaky", drop_frac=1.5)

    def test_sorts_and_orders_ties_by_script_order(self):
        plan = FaultPlan([
            FaultEvent(at=5.0, kind="recover", node=1),
            FaultEvent(at=1.0, kind="crash", node=1),
            FaultEvent(at=5.0, kind="crash", node=2),
        ])
        assert [(e.at, e.kind) for e in plan] == [
            (1.0, "crash"), (5.0, "recover"), (5.0, "crash")]

    def test_schedule_fires_on_event_queue_in_order(self):
        clock = SimClock()
        queue = EventQueue(clock)
        fired = []
        plan = FaultPlan.kill_and_recover(node=2, at=10.0, outage=5.0)
        plan.schedule(queue, lambda e: fired.append((clock.now, e.kind)))
        queue.run_until(9.0)
        assert fired == []
        queue.run_until(20.0)
        assert fired == [(10.0, "crash"), (15.0, "recover")]


# ------------------------------------------------------------------- proxy


@pytest.fixture
def proxied():
    server = LiveCacheServer(capacity_bytes=1 << 20).start()
    proxy = FaultProxy(server.address, seed=1).start()
    yield server, proxy
    proxy.stop()
    server.stop()


class TestFaultProxy:
    def test_clean_passthrough(self, proxied):
        _, proxy = proxied
        with LiveCacheClient(proxy.address, retry=FAST) as c:
            assert c.put(1, b"abc") == 0
            assert c.get(1) == b"abc"
            assert c.get(2) is None
        assert proxy.forwarded >= 4

    def test_partition_blocks_then_heals(self, proxied):
        _, proxy = proxied
        client = LiveCacheClient(proxy.address, timeout=0.5, retry=FAST)
        client.put(1, b"x")
        proxy.partition()
        with pytest.raises((ProtocolError, OSError)):
            client.get(1)
        proxy.heal()
        assert client.get(1) == b"x"  # reconnects through healed proxy
        client.close()

    def test_garbled_frames_fail_the_session_not_the_data(self, proxied):
        _, proxy = proxied
        client = LiveCacheClient(proxy.address, timeout=0.5, retry=RetryPolicy(
            max_attempts=6, deadline_s=5.0, base_delay_s=0.005,
            max_delay_s=0.02))
        client.put(5, b"payload")
        proxy.set_faults(garble_frac=1.0)
        with pytest.raises((ProtocolError, OSError)):
            client.get(5)
        proxy.clear_faults()
        assert client.get(5) == b"payload"
        assert proxy.garbled > 0
        client.close()

    def test_validation(self, proxied):
        _, proxy = proxied
        with pytest.raises(ValueError):
            proxy.set_faults(drop_frac=2.0)
        with pytest.raises(ValueError):
            proxy.set_faults(delay_s=-1.0)

    def test_stop_with_open_session_is_prompt_and_leaves_no_thread(self):
        """``stop()`` wakes the accept thread and both relays of an open
        session (``close()`` alone wakes neither on Linux) and joins
        them."""
        server = LiveCacheServer(capacity_bytes=1 << 20).start()
        proxy = FaultProxy(server.address).start()
        name = f"fault-proxy-{proxy.address[1]}"

        def proxy_threads() -> list[str]:
            return [t.name for t in threading.enumerate()
                    if t.name in (name, f"{name}-relay")]
        client = LiveCacheClient(proxy.address, retry=FAST)
        try:
            client.put(1, b"x")  # one relayed session, left open
            assert len(proxy_threads()) == 3
            t0 = time.perf_counter()
            proxy.stop()
            assert time.perf_counter() - t0 < 0.5
            assert proxy_threads() == []
        finally:
            client.close()
            proxy.stop()
            server.stop()


# ------------------------------------------------ client retry regressions


class _ScriptedServer:
    """Answers every request frame with one fixed ``reply`` and counts
    the requests, one connection at a time."""

    def __init__(self, reply: Frame) -> None:
        self.reply = reply
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "_ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        self._thread.join(timeout=5)

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                reader = FrameReader(conn)
                try:
                    while True:
                        reader.recv_frame()
                        self.requests += 1
                        send_frame(conn, self.reply)
                except (ProtocolError, OSError):
                    pass  # the client hung up


def _raise_put_error(client: LiveCacheClient) -> None:
    error = client.multi_put([(1, b"x"), (2, b"y")]).error
    if error is not None:
        raise error


#: one op of each kind, as the refusal-rule tests drive them.
_OPS = {
    "point": lambda c: c.get(1),
    "range-sweep": lambda c: c.sweep(0, 100),
    "range-prepare": lambda c: c.extract_prepare(0, 100),
    "batch-get": lambda c: c.multi_get([1, 2, 3]),
    "batch-put": _raise_put_error,
}


class TestClientRetryRules:
    def test_put_retries_across_server_restart(self):
        """Regression: ``put`` is idempotent here (same key => same
        derived bytes) and must survive a stale connection."""
        first = LiveCacheServer(capacity_bytes=1 << 20).start()
        host, port = first.address
        client = LiveCacheClient((host, port), retry=FAST)
        client.put(1, b"before")
        first.stop()
        second = LiveCacheServer(host=host, port=port,
                                 capacity_bytes=1 << 20).start()
        try:
            assert client.put(2, b"after") == 0  # transparent retry
            assert client.reconnects == 1
            assert client.retries >= 1
            assert client.get(2) == b"after"
        finally:
            client.close()
            second.stop()

    @pytest.mark.parametrize("op", ["sweep", "extract_prepare"])
    def test_nondestructive_range_streams_retry(self, op):
        """The flip side: ``sweep`` (read-only) and ``extract_prepare``
        (snapshot-and-retain) are safe to replay, so a stale connection
        is absorbed by the retry policy instead of surfacing."""
        first = LiveCacheServer(capacity_bytes=1 << 20).start()
        host, port = first.address
        client = LiveCacheClient((host, port), retry=FAST)
        client.put(1, b"x")
        first.stop()
        second = LiveCacheServer(host=host, port=port,
                                 capacity_bytes=1 << 20).start()
        try:
            second_client = LiveCacheClient((host, port))
            second_client.put(5, b"y")
            second_client.close()
            before = client.retries
            result = getattr(client, op)(0, 100)  # stale socket: retried
            records = result[1] if op == "extract_prepare" else result
            assert records == [(5, b"y")]
            assert client.retries > before
            # prepare retained the records — nothing was destroyed by
            # the replay (the orphaned token simply lease-expires).
            assert client.get(5) == b"y"
        finally:
            client.close()
            second.stop()

    def test_retry_gives_up_against_a_dead_server(self):
        server = LiveCacheServer(capacity_bytes=1 << 20).start()
        client = LiveCacheClient(server.address, retry=FAST)
        server.stop()
        with pytest.raises((ProtocolError, OSError)):
            client.get(1)
        assert client.retries == FAST.max_attempts - 1
        client.close()

    @pytest.mark.parametrize("reply,error", [
        (Frame(ERROR, body=b"refused"), ServerError),
        (Frame(OVERLOADED, ms=5), OverloadedError),
        (Frame(DEADLINE), DeadlineError),
    ], ids=["error", "overloaded", "deadline"])
    @pytest.mark.parametrize("op", _OPS, ids=list(_OPS))
    def test_refusal_is_sent_once_and_keeps_the_connection(self, op, reply,
                                                           error):
        """One refusal rule for every op kind: a typed refusal is a
        complete answer, raised after one request, on the same socket."""
        with _ScriptedServer(reply) as server:
            client = LiveCacheClient(server.address, retry=FAST)
            sock = client._sock
            with pytest.raises(error):
                _OPS[op](client)
            assert server.requests == 1
            assert client.retries == 0
            assert client._sock is sock and client.reconnects == 0
            client.close()

    @pytest.mark.parametrize("op", _OPS, ids=list(_OPS))
    def test_out_of_step_reply_drops_the_connection(self, op):
        """A reply that is neither ``OK`` nor a typed refusal leaves the
        stream out of step: the connection is dropped and the request
        resent on a fresh one, up to the policy's attempts."""
        with _ScriptedServer(Frame(PING)) as server:
            client = LiveCacheClient(server.address, retry=FAST)
            with pytest.raises(ProtocolError) as info:
                _OPS[op](client)
            assert not isinstance(info.value, REFUSALS)
            assert server.requests == FAST.max_attempts
            assert client.retries == client.reconnects == FAST.max_attempts - 1
            client.close()


# ------------------------------------------------- cluster failover units


class TestClusterFailover:
    def test_fail_server_reassigns_buckets_and_restore_migrates_back(self):
        servers = [LiveCacheServer(capacity_bytes=1 << 20).start()
                   for _ in range(2)]
        addresses = [s.address for s in servers]
        cluster = LiveClusterClient(addresses, ring_range=1 << 10,
                                    retry=FAST, timeout=0.5)
        try:
            for key in range(0, 1000, 100):
                cluster.put(key, f"v{key}".encode())
            victim = addresses[0]
            owned = cluster.fail_server(victim)
            assert owned  # it owned buckets
            assert victim not in cluster.clients
            assert cluster.failed_servers == [victim]
            # every bucket now resolves to the survivor; writes land there
            for key in range(0, 1000, 100):
                assert cluster.address_for(key) == addresses[1]
                cluster.put(key, f"v{key}".encode())  # recompute analogue
            # "restart" the dead server cold on the same port
            servers[0].stop()
            host, port = victim
            servers[0] = LiveCacheServer(host=host, port=port,
                                         capacity_bytes=1 << 20).start()
            moved = cluster.restore_server(victim)
            assert moved > 0
            assert not cluster.failed_servers
            stats = cluster.cluster_stats()
            assert stats[f"{host}:{port}"]["records"] == moved
        finally:
            cluster.close()
            for s in servers:
                s.stop()

    def test_restore_retry_finishes_pending_moves(self):
        # The restored server is too small for the outage's records, so
        # the copy home fails part-way; once capacity is freed the
        # retried restore must finish moving them home.
        servers = [LiveCacheServer(capacity_bytes=1 << 20).start()
                   for _ in range(2)]
        addresses = [s.address for s in servers]
        cluster = LiveClusterClient(addresses, ring_range=1 << 10,
                                    retry=FAST, timeout=0.5)
        keys = range(0, 1000, 25)
        try:
            victim, survivor = addresses
            servers[0].stop()
            cluster.fail_server(victim)
            for key in keys:                    # the outage recomputes
                cluster.put(key, f"v{key}".encode())
            host, port = victim
            servers[0] = LiveCacheServer(host=host, port=port,
                                         capacity_bytes=16).start()
            with pytest.raises(ProtocolError, match="overflow"):
                cluster.restore_server(victim)
            interim = cluster.clients[survivor]
            assert interim.stats()["transfers_pending"] == 0
            servers[0].store.records.capacity_bytes = 1 << 20   # capacity freed
            assert cluster.restore_server(victim) > 0
            assert not cluster.failed_servers
            for key in keys:
                assert cluster.get(key) == f"v{key}".encode()
            # Every record of the restored range is home, none stranded
            # on the interim owner.
            for bucket in cluster.ring.buckets_of(victim):
                for lo, hi in cluster.ring.interval_segments(bucket):
                    assert interim.sweep(lo, hi) == []
                    home = cluster.clients[victim].sweep(lo, hi)
                    assert {k for k, _ in home} == {
                        k for k in keys if lo <= k <= hi}
        finally:
            cluster.close()
            for s in servers:
                s.stop()

    def test_fail_last_server_refuses(self):
        server = LiveCacheServer(capacity_bytes=1 << 20).start()
        cluster = LiveClusterClient([server.address], ring_range=1 << 10)
        try:
            with pytest.raises(ValueError):
                cluster.fail_server(server.address)
        finally:
            cluster.close()
            server.stop()

    def test_restore_unknown_server_refuses(self):
        server = LiveCacheServer(capacity_bytes=1 << 20).start()
        cluster = LiveClusterClient([server.address], ring_range=1 << 10)
        try:
            with pytest.raises(ValueError):
                cluster.restore_server(("127.0.0.1", 1))
        finally:
            cluster.close()
            server.stop()
