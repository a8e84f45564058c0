"""Overload protection and two-phase migration: the robustness layer.

Unit coverage for the pieces the overload tentpole added — the
:class:`~repro.live.server.AdmissionGate`, deadline propagation,
priority shedding, the :class:`~repro.faults.breaker.CircuitBreaker`,
the :class:`~repro.live.migration.TransferLedger` — plus wire-level
tests proving the live server enforces the same contracts end to end.
"""

import socket
import threading
import time

import pytest

from repro.faults import CircuitBreaker, FailureDetector, RetryPolicy
from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN
from repro.live.client import LiveCacheClient, LiveClusterClient
from repro.live.coordinator import LiveCoordinator
from repro.live.migration import TransferLedger, finish_move, prepare_move
from repro.live.protocol import (DEADLINE, ERROR, GET, HEADER_BYTES, OVERFLOW,
                                 OVERLOADED, CapacityError, DeadlineError,
                                 Frame, OverloadedError, ProtocolError,
                                 ServerError, encode, error_from_reply)
from repro.live.server import AdmissionGate, LiveCacheServer
from tests.conftest import FakeDest, FakeSource

NO_RETRY = RetryPolicy(max_attempts=1, deadline_s=2.0,
                       base_delay_s=0.001, max_delay_s=0.001)


# ===================================================== AdmissionGate unit


class TestAdmissionGate:
    def test_admits_up_to_workers_without_queueing(self):
        gate = AdmissionGate(max_workers=2, max_queue=4)
        assert gate.try_admit() == "admitted"
        assert gate.try_admit() == "admitted"
        assert gate.active == 2
        assert gate.peak_queue_depth == 0

    def test_sheds_when_queue_full(self):
        gate = AdmissionGate(max_workers=1, max_queue=0)
        assert gate.try_admit() == "admitted"
        assert gate.try_admit() == "overloaded"
        assert gate.shed_overload == 1

    def test_background_shed_at_half_queue(self):
        gate = AdmissionGate(max_workers=1, max_queue=2)
        assert gate.try_admit() == "admitted"          # slot taken
        # queue empty: background may still wait... but waiting*2 >= 2
        # only once one waiter exists.  Occupy the queue from a thread.
        entered = threading.Event()

        def waiter():
            entered.set()
            gate.try_admit()           # parks in the queue
            gate.release()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        entered.wait()
        deadline = time.monotonic() + 2.0
        while gate.waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert gate.waiting == 1
        # one user waiter => waiting*2 >= max_queue => background sheds,
        # user traffic may still join the queue.
        assert gate.try_admit(priority="background") == "overloaded"
        assert gate.shed_background == 1
        gate.release()                 # frees the waiter
        t.join(timeout=2.0)

    def test_queue_depth_bounded_and_counted(self):
        gate = AdmissionGate(max_workers=1, max_queue=1)
        assert gate.try_admit() == "admitted"
        results = []
        entered = threading.Event()

        def waiter():
            entered.set()
            results.append(gate.try_admit())
            if results[-1] == "admitted":
                gate.release()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        entered.wait()
        deadline = time.monotonic() + 2.0
        while gate.waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        # queue is now full: the next arrival is shed, not queued
        assert gate.try_admit() == "overloaded"
        assert gate.peak_queue_depth == 1
        gate.release()
        t.join(timeout=2.0)
        assert results == ["admitted"]

    def test_deadline_expires_while_queued(self):
        gate = AdmissionGate(max_workers=1, max_queue=4)
        assert gate.try_admit() == "admitted"
        # budget already spent: the waiter gives up instead of parking
        verdict = gate.try_admit(expires_at=time.monotonic() - 0.01)
        assert verdict == "deadline"
        assert gate.deadline_misses == 1
        gate.release()

    def test_release_restores_capacity(self):
        gate = AdmissionGate(max_workers=1, max_queue=0)
        assert gate.try_admit() == "admitted"
        gate.release()
        assert gate.try_admit() == "admitted"
        snap = gate.snapshot()
        assert snap["active"] == 1
        assert snap["peak_active"] == 1
        gate.release()

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_workers=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)


# ==================================================== CircuitBreaker unit


class TestCircuitBreaker:
    def test_full_cycle_closed_open_halfopen_closed(self):
        t = [0.0]
        b = CircuitBreaker(threshold=2, reset_timeout_s=5.0,
                           clock=lambda: t[0])
        assert b.state("s") == CLOSED
        assert b.allow("s")
        b.record_failure("s")
        assert b.state("s") == CLOSED       # one failure: still closed
        assert b.record_failure("s")        # threshold crossed
        assert b.state("s") == OPEN
        assert not b.allow("s")
        t[0] = 5.0
        assert b.state("s") == HALF_OPEN
        assert b.allow("s")                 # the probe
        assert not b.allow("s")             # only one probe at a time
        b.record_success("s")
        assert b.state("s") == CLOSED
        assert b.opens == 1 and b.closes == 1

    def test_probe_failure_reopens_and_restarts_timer(self):
        t = [0.0]
        b = CircuitBreaker(threshold=1, reset_timeout_s=2.0,
                           clock=lambda: t[0])
        b.record_failure("s")
        t[0] = 2.5
        assert b.allow("s")                 # probe
        assert b.record_failure("s")        # probe failed: back to open
        assert b.state("s") == OPEN
        t[0] = 4.0                          # 1.5s after reopen: still open
        assert not b.allow("s")
        t[0] = 4.6
        assert b.allow("s")

    def test_shared_detector_sees_same_evidence(self):
        det = FailureDetector(threshold=2)
        b = CircuitBreaker(detector=det, reset_timeout_s=1.0)
        b.record_failure("s")
        b.record_failure("s")
        assert det.is_down("s")
        assert b.state("s") == OPEN
        b.record_success("s")
        assert not det.is_down("s")

    def test_success_on_closed_breaker_is_noop(self):
        b = CircuitBreaker()
        b.record_success("s")
        assert b.state("s") == CLOSED
        assert b.closes == 0
        assert b.open_targets == []


# =================================================== TransferLedger unit


class TestTransferLedger:
    RECORDS = [(1, b"a"), (2, b"bb")]

    def test_prepare_commit_roundtrip(self):
        led = TransferLedger(lease_s=30.0)
        token = led.prepare(0, 10, self.RECORDS)
        assert led.pending == 1
        xfer = led.commit(token)
        assert xfer is not None
        assert xfer.keys == [1, 2]
        assert led.pending == 0
        assert led.committed == 1

    def test_commit_is_idempotent(self):
        led = TransferLedger(lease_s=30.0)
        token = led.prepare(0, 10, self.RECORDS)
        assert led.commit(token) is not None
        assert led.commit(token) is None        # replay: no-op
        assert led.commit("never-issued") is None
        assert led.committed == 1

    def test_abort_releases_without_effect(self):
        led = TransferLedger(lease_s=30.0)
        token = led.prepare(0, 10, self.RECORDS)
        assert led.abort(token) is True
        assert led.abort(token) is False        # replay: no-op
        assert led.commit(token) is None        # aborted: cannot commit
        assert led.aborted == 1

    def test_lease_expiry_makes_commit_a_noop(self):
        t = [0.0]
        led = TransferLedger(lease_s=5.0, clock=lambda: t[0])
        token = led.prepare(0, 10, self.RECORDS)
        t[0] = 5.1
        assert led.commit(token) is None        # expired: records stay
        assert led.expired == 1
        assert led.pending == 0

    def test_per_prepare_lease_override(self):
        t = [0.0]
        led = TransferLedger(lease_s=100.0, clock=lambda: t[0])
        token = led.prepare(0, 10, self.RECORDS, lease_s=1.0)
        t[0] = 2.0
        assert led.commit(token) is None

    def test_tokens_are_unique(self):
        led = TransferLedger()
        t1 = led.prepare(0, 10, self.RECORDS)
        t2 = led.prepare(0, 10, self.RECORDS)
        assert t1 != t2
        assert led.pending == 2


# ================================================== two-phase range move


class TestRangeMove:
    def test_success_moves_and_deletes(self):
        src = FakeSource({1: b"a", 2: b"b", 9: b"z"})
        dest = FakeDest()
        moved = finish_move(prepare_move(src, [(0, 5)]), dest)
        assert [k for k, _ in moved] == [1, 2]
        assert dest.store == {1: b"a", 2: b"b"}
        assert src.records == {9: b"z"}         # committed: 1,2 deleted

    def test_dest_failure_aborts_and_retains(self):
        src = FakeSource({1: b"a", 2: b"b"})
        dest = FakeDest(fail_at=2)
        with pytest.raises(ProtocolError):
            finish_move(prepare_move(src, [(0, 5)]), dest)
        # source kept everything (abort), dest has at most duplicates
        assert src.records == {1: b"a", 2: b"b"}
        assert src.aborts == 1 and src.ledger.pending == 0
        assert dest.store == {1: b"a"}          # duplicate, never loss

    def test_abort_failure_is_swallowed(self):
        src = FakeSource({1: b"a"})

        def bad_abort(token, replica=False):
            raise OSError("source unreachable for abort")

        src.extract_abort = bad_abort
        # the copy failure propagates; the abort failure does not mask it
        with pytest.raises(ProtocolError, match="died mid-copy"):
            finish_move(prepare_move(src, [(0, 5)]), FakeDest(fail_at=1))
        assert src.records == {1: b"a"}         # lease will expire server-side

    def test_failed_prepare_aborts_tokens_already_taken(self):
        src = FakeSource({1: b"a", 7: b"g"})
        prepare = src.extract_prepare

        def refuse_second(lo, hi, replica=False):
            if lo > 5:
                raise OverloadedError("shed")
            return prepare(lo, hi, replica)

        src.extract_prepare = refuse_second
        with pytest.raises(OverloadedError):
            prepare_move(src, [(0, 5), (6, 10)])
        assert src.aborts == 1 and src.ledger.pending == 0
        assert src.records == {1: b"a", 7: b"g"}

    def test_move_onto_its_own_source_keeps_records(self):
        src = FakeSource({1: b"a"})
        assert finish_move(prepare_move(src, [(0, 5)]), src) == []
        assert src.records == {1: b"a"} and src.commits == 0
        assert src.ledger.pending == 0


# ================================================ typed protocol errors


class TestErrorMapping:
    def test_overloaded_reply_maps_to_typed_error(self):
        exc = error_from_reply(Frame(OVERLOADED, ms=40), "op failed")
        assert isinstance(exc, OverloadedError)
        assert exc.retry_after_ms == 40

    def test_deadline_reply_maps_to_typed_error(self):
        exc = error_from_reply(Frame(DEADLINE), "op failed")
        assert isinstance(exc, DeadlineError)

    def test_other_errors_map_to_server_error(self):
        """Refusals without a dedicated type are ServerError — still a
        ProtocolError, but marked as a deterministic, well-formed reply
        (batched ops give up instead of resending the same records)."""
        exc = error_from_reply(Frame(ERROR, body=b"overflow: full"),
                               "op failed")
        assert type(exc) is ServerError
        assert isinstance(exc, ProtocolError)

    def test_overflow_reply_maps_to_capacity_error(self):
        """Overflow is a type, not a text: only the ``OVERFLOW`` code
        maps to :class:`CapacityError`, still a ``ServerError`` (so the
        consistency checker classifies it as refused)."""
        exc = error_from_reply(Frame(OVERFLOW, key=12), "op failed")
        assert type(exc) is CapacityError
        assert isinstance(exc, ServerError)
        assert not isinstance(error_from_reply(
            Frame(ERROR, body=b"overflow"), "op failed"), CapacityError)


# ============================================== wire-level: two-phase ops


@pytest.fixture()
def server():
    srv = LiveCacheServer(capacity_bytes=1 << 20).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    c = LiveCacheClient(server.address, timeout=2.0, retry=NO_RETRY)
    yield c
    c.close()


class TestTwoPhaseWire:
    def _fill(self, client, n=5):
        for i in range(n):
            client.put(i, f"v{i}".encode())

    def test_prepare_retains_commit_deletes(self, client):
        self._fill(client)
        token, records = client.extract_prepare(0, 2)
        assert [k for k, _ in records] == [0, 1, 2]
        # prepared but not committed: records still served
        assert client.get(1) == b"v1"
        removed = client.extract_commit(token)
        assert removed == 3
        assert client.get(1) is None
        assert client.get(3) == b"v3"           # outside the range: kept

    def test_commit_replay_is_noop(self, client):
        self._fill(client)
        token, _ = client.extract_prepare(0, 2)
        assert client.extract_commit(token) == 3
        assert client.extract_commit(token) == 0

    def test_abort_keeps_records(self, client):
        self._fill(client)
        token, _ = client.extract_prepare(0, 2)
        assert client.extract_abort(token) is True
        assert client.extract_commit(token) == 0
        assert client.get(0) == b"v0"

    def test_expired_lease_commit_is_noop(self, client):
        self._fill(client)
        token, _ = client.extract_prepare(0, 2, lease_s=0.05)
        time.sleep(0.1)
        assert client.extract_commit(token) == 0
        assert client.get(0) == b"v0"           # lease expired: retained

    def test_two_phase_extract_composition(self, client):
        self._fill(client)
        records = client.extract(0, 2)
        assert [k for k, _ in records] == [0, 1, 2]
        assert client.get(0) is None

    def test_stats_surface_transfer_counters(self, client):
        self._fill(client)
        token, _ = client.extract_prepare(0, 2)
        stats = client.stats()
        assert stats["transfers_pending"] == 1
        client.extract_commit(token)
        stats = client.stats()
        assert stats["transfers_pending"] == 0
        assert stats["transfers_committed"] == 1

    def test_concurrent_prepares_commit_independently(self, client):
        self._fill(client, n=10)
        t1, r1 = client.extract_prepare(0, 4)
        t2, r2 = client.extract_prepare(5, 9)
        assert client.extract_commit(t2) == 5
        assert client.get(7) is None
        assert client.get(2) == b"v2"           # t1 still prepared
        assert client.extract_commit(t1) == 5


# =========================================== wire-level: deadlines & shed


class TestDeadlineWire:
    def test_client_raises_locally_when_budget_spent(self, client):
        with pytest.raises(DeadlineError):
            client.get(1, deadline_ms=0)

    def test_server_honours_deadline_under_load(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20, max_workers=1,
                              max_queue=4, op_delay_s=0.2).start()
        try:
            blocker = LiveCacheClient(srv.address, timeout=5.0,
                                      retry=NO_RETRY)
            victim = LiveCacheClient(srv.address, timeout=5.0,
                                     retry=NO_RETRY)
            t = threading.Thread(
                target=lambda: blocker.put(1, b"x"), daemon=True)
            t.start()
            time.sleep(0.05)            # blocker holds the only slot
            with pytest.raises(DeadlineError):
                # 50ms budget < 200ms residual service time: the server
                # (queue wait or store-boundary check) must refuse.
                victim.get(2, deadline_ms=50)
            t.join(timeout=3.0)
            blocker.close()
            victim.close()
        finally:
            srv.stop()


class TestOverloadWire:
    def _saturated(self):
        """A server whose single slot is held and whose queue is full."""
        srv = LiveCacheServer(capacity_bytes=1 << 20, max_workers=1,
                              max_queue=0, op_delay_s=0.5).start()
        blocker = LiveCacheClient(srv.address, timeout=5.0, retry=NO_RETRY)
        t = threading.Thread(target=lambda: blocker.put(1, b"x"),
                             daemon=True)
        t.start()
        time.sleep(0.1)                 # the slot is now taken
        return srv, blocker, t

    def test_shed_reply_is_typed_with_retry_after(self):
        srv, blocker, t = self._saturated()
        try:
            with LiveCacheClient(srv.address, timeout=2.0,
                                 retry=NO_RETRY) as victim:
                with pytest.raises(OverloadedError) as ei:
                    victim.get(2)
                assert ei.value.retry_after_ms > 0
                # the connection survived the refusal: same socket works
                t.join(timeout=3.0)
                assert victim.get(1) == b"x"
                assert victim.reconnects == 0
        finally:
            blocker.close()
            srv.stop()

    def test_ping_and_stats_bypass_admission(self):
        srv, blocker, t = self._saturated()
        try:
            with LiveCacheClient(srv.address, timeout=2.0,
                                 retry=NO_RETRY) as probe:
                assert probe.ping()     # overloaded is not dead
                stats = probe.stats()
                assert stats["active"] == 1
            t.join(timeout=3.0)
        finally:
            blocker.close()
            srv.stop()

    def test_background_priority_shed_before_user(self):
        # queue of 2: one user waiter makes waiting*2 >= max_queue, so
        # background is refused while user traffic still queues.
        srv = LiveCacheServer(capacity_bytes=1 << 20, max_workers=1,
                              max_queue=2, op_delay_s=0.3).start()
        clients = [LiveCacheClient(srv.address, timeout=5.0,
                                   retry=NO_RETRY) for _ in range(3)]
        try:
            threads = [
                threading.Thread(target=lambda c=c: c.put(1, b"x"),
                                 daemon=True)
                for c in clients[:2]
            ]
            for t in threads:
                t.start()
            time.sleep(0.1)             # slot held + one user queued
            with pytest.raises(OverloadedError):
                clients[2].get(2, priority="background")
            for t in threads:
                t.join(timeout=3.0)
            stats = clients[2].stats()
            assert stats["shed_background"] >= 1
        finally:
            for c in clients:
                c.close()
            srv.stop()


# ================================================ wire-level: idle timeout


class TestIdleTimeout:
    def test_stalled_mid_frame_peer_is_disconnected(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20,
                              idle_timeout_s=0.2).start()
        try:
            with socket.create_connection(srv.address, timeout=2.0) as sock:
                # send half a header, then stall: the server's socket
                # timeout must end the session instead of pinning a
                # thread forever.
                sock.sendall(encode(Frame(GET, key=1))[:HEADER_BYTES // 2])
                try:
                    data = sock.recv(1)
                except ConnectionError:
                    data = b""
                assert data == b""
            # the accept loop survived
            with LiveCacheClient(srv.address, timeout=2.0) as c:
                assert c.ping()
        finally:
            srv.stop()


# ========================================== coordinator overload behaviour


def _derived(key: int) -> bytes:
    return f"derived:{key}".encode()


class TestCoordinatorOverload:
    def test_shed_query_recomputes_without_charging_detector(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20, max_workers=1,
                              max_queue=0, op_delay_s=0.5).start()
        blocker = LiveCacheClient(srv.address, timeout=5.0, retry=NO_RETRY)
        cluster = LiveClusterClient([srv.address], ring_range=1 << 20,
                                    retry=NO_RETRY, timeout=2.0)
        coord = LiveCoordinator(cluster, _derived,
                                detector=FailureDetector(threshold=1))
        try:
            t = threading.Thread(target=lambda: blocker.put(1, b"x"),
                                 daemon=True)
            t.start()
            time.sleep(0.1)
            value = coord.query(7)          # server sheds: recompute
            assert value == _derived(7)
            assert coord.stats.overloaded >= 1
            assert coord.stats.degraded_queries == 0   # shed != dead
            assert not coord.detector.is_down(srv.address)
            assert coord.breaker.state(srv.address) == CLOSED
            t.join(timeout=3.0)
        finally:
            blocker.close()
            cluster.close()
            srv.stop()

    def test_background_dropped_under_overload(self, wait_until):
        srv = LiveCacheServer(capacity_bytes=1 << 20, max_workers=1,
                              max_queue=0, op_delay_s=0.5).start()
        blocker = LiveCacheClient(srv.address, timeout=5.0, retry=NO_RETRY)
        cluster = LiveClusterClient([srv.address], ring_range=1 << 20,
                                    retry=NO_RETRY, timeout=2.0)
        coord = LiveCoordinator(cluster, _derived)
        try:
            t = threading.Thread(target=lambda: blocker.put(1, b"x"),
                                 daemon=True)
            t.start()
            # Only once the blocker actually holds the single worker
            # slot is the gate guaranteed to shed the background op.
            wait_until(lambda: srv.gate.active >= 1, timeout_s=5.0,
                       desc="blocker to occupy the worker slot")
            assert coord.prefetch(7) is False    # dropped, not recomputed
            assert coord.stats.shed_background >= 1
            t.join(timeout=3.0)
        finally:
            blocker.close()
            cluster.close()
            srv.stop()

    def test_open_breaker_fastfails_to_recompute(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20).start()
        cluster = LiveClusterClient([srv.address], ring_range=1 << 20,
                                    retry=NO_RETRY, timeout=2.0)
        det = FailureDetector(threshold=1)
        coord = LiveCoordinator(
            cluster, _derived, detector=det,
            breaker=CircuitBreaker(detector=det, reset_timeout_s=60.0))
        addr = srv.address
        try:
            srv.stop()                       # shard dies
            v = coord.query(3)               # transport error: degraded
            assert v == _derived(3)
            assert coord.breaker.state(addr) == OPEN
            before = coord.stats.degraded_queries
            v = coord.query(4)               # breaker open: fast-fail
            assert v == _derived(4)
            assert coord.stats.breaker_fastfails >= 1
            # fast-fail still serves (degraded recompute), no hang
            assert coord.stats.degraded_queries == before + 1
        finally:
            cluster.close()

    def test_deadline_exhausted_query_recomputes(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20, max_workers=1,
                              max_queue=4, op_delay_s=0.3).start()
        blocker = LiveCacheClient(srv.address, timeout=5.0, retry=NO_RETRY)
        cluster = LiveClusterClient([srv.address], ring_range=1 << 20,
                                    retry=NO_RETRY, timeout=2.0)
        coord = LiveCoordinator(cluster, _derived, deadline_ms=80)
        try:
            t = threading.Thread(target=lambda: blocker.put(1, b"x"),
                                 daemon=True)
            t.start()
            time.sleep(0.05)
            value = coord.query(9)           # budget < residual service
            assert value == _derived(9)
            assert coord.stats.deadline_misses >= 1
            t.join(timeout=3.0)
        finally:
            blocker.close()
            cluster.close()
            srv.stop()
