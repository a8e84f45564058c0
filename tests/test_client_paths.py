"""The live client's hot paths: one attempt inline, one shared hold,
one ring lookup per point op and one routing pass per batch.

Each test pins a fast path against the rule it must keep: a successful
request never enters the retry machinery, but a failed one retries
under the same policy; the topology lock stays writer-priority with a
conditional wake-up; batch grouping equals per-key routing; a point op
makes one ring lookup, owner and buddy from the same bucket.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import ConsistentHashRing, RingError
from repro.faults import CircuitBreaker, RetryPolicy, call_with_retry
from repro.live import client as client_module
from repro.live.client import (LiveCacheClient, LiveClusterClient,
                               _TopologyLock)
from repro.live.coordinator import LiveCoordinator
from repro.live.server import LiveCacheServer

FAST = RetryPolicy(max_attempts=3, deadline_s=2.0, base_delay_s=0.005,
                   max_delay_s=0.02)

#: how long a lock test waits for something that must happen
WAIT_S = 5.0
#: how long it watches for something that must not
QUIET_S = 0.1


# ------------------------------------------------------- retry, resumed


class TestRetryResume:
    def test_inline_failure_counts_as_the_first_attempt(self):
        calls, notes = [], []

        def fn():
            calls.append(1)
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            call_with_retry(fn, RetryPolicy(max_attempts=3, base_delay_s=0.0),
                            clock=lambda: 0.0, sleep=lambda d: None,
                            on_retry=lambda n, exc: notes.append(n),
                            failed=OSError("first"), started=0.0)
        assert len(calls) == 2  # attempts 2 and 3
        assert notes == [1, 2]

    def test_deadline_runs_from_the_inline_start(self):
        calls = []
        with pytest.raises(OSError, match="first"):
            call_with_retry(lambda: calls.append(1),
                            RetryPolicy(deadline_s=1.0, base_delay_s=0.5,
                                        max_delay_s=0.5),
                            clock=lambda: 10.7, sleep=lambda d: None,
                            failed=OSError("first"), started=10.0)
        assert calls == []  # 0.7 s spent + 0.5 s backoff > 1 s budget

    def test_one_attempt_policy_gives_up_at_once(self):
        calls = []
        with pytest.raises(OSError):
            call_with_retry(lambda: calls.append(1), RetryPolicy.none(),
                            failed=OSError("first"), started=0.0)
        assert calls == []


# --------------------------------------------------- point-op fast path


@pytest.fixture
def server():
    srv = LiveCacheServer(capacity_bytes=1 << 20).start()
    yield srv
    srv.stop()


def _no_retry_machinery(*args, **kwargs):
    raise AssertionError("a successful request entered call_with_retry")


def test_successful_point_ops_never_enter_the_retry_machinery(
        server, monkeypatch):
    monkeypatch.setattr(client_module, "call_with_retry", _no_retry_machinery)
    client = LiveCacheClient(server.address, retry=FAST)
    try:
        for key in range(20):
            assert client.put(key, b"v%d" % key) == 0
            assert client.get(key) == b"v%d" % key
            assert client.get(key + 1000) is None
            assert client.delete(key) == (True, len(b"v%d" % key))
        assert client.retries == client.reconnects == 0
    finally:
        client.close()


def test_a_failed_point_op_still_retries_under_the_policy(monkeypatch):
    """The other half of the fast path: a transport failure does reach
    the retry machinery (so the patch above guards the real entry)."""
    first = LiveCacheServer(capacity_bytes=1 << 20).start()
    host, port = first.address
    client = LiveCacheClient((host, port), retry=FAST)
    client.put(1, b"x")
    first.stop()
    second = LiveCacheServer(host=host, port=port,
                             capacity_bytes=1 << 20).start()
    try:
        monkeypatch.setattr(client_module, "call_with_retry",
                            _no_retry_machinery)
        with pytest.raises(AssertionError, match="call_with_retry"):
            client.get(1)
        monkeypatch.undo()
        assert client.get(1) is None  # the fresh server is empty
        assert client.reconnects == 1
    finally:
        client.close()
        second.stop()


# -------------------------------------------------------- topology lock


def _in_thread(fn) -> tuple[threading.Thread, threading.Event]:
    """Run ``fn`` on a daemon thread; the event is set once it returns."""
    done = threading.Event()

    def run():
        fn()
        done.set()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, done


def _hold(context, entered: threading.Event, release: threading.Event):
    def body():
        with context():
            entered.set()
            assert release.wait(WAIT_S)
    return body


def _wait_until(predicate) -> None:
    for _ in range(int(WAIT_S / 0.005)):
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition never held")


@pytest.mark.timeout(30)
class TestTopologyLock:
    def test_readers_share_the_lock(self):
        topo = _TopologyLock()
        both = threading.Barrier(2, timeout=WAIT_S)

        def reader():
            with topo.shared:
                both.wait()  # breaks (raises) unless both are inside
        threads = [threading.Thread(target=reader, daemon=True)
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
            assert not t.is_alive()
        assert not both.broken

    def test_a_writer_waits_for_the_readers(self):
        topo = _TopologyLock()
        held, release = threading.Event(), threading.Event()
        _in_thread(_hold(lambda: topo.shared, held, release))
        assert held.wait(WAIT_S)
        wrote = threading.Event()
        _, done = _in_thread(_hold(topo.exclusive, wrote, _set_event()))
        assert not wrote.wait(QUIET_S)
        release.set()
        assert wrote.wait(WAIT_S)
        assert done.wait(WAIT_S)

    def test_a_reader_arriving_behind_a_waiting_writer_queues(self):
        topo = _TopologyLock()
        first_in, first_out = threading.Event(), threading.Event()
        _in_thread(_hold(lambda: topo.shared, first_in, first_out))
        assert first_in.wait(WAIT_S)
        writer_in, writer_out = threading.Event(), threading.Event()
        _in_thread(_hold(topo.exclusive, writer_in, writer_out))
        _wait_until(lambda: topo._writers_waiting == 1)
        late_in, late_out = threading.Event(), threading.Event()
        _in_thread(_hold(lambda: topo.shared, late_in, late_out))
        assert not late_in.wait(QUIET_S)  # writer priority
        first_out.set()
        assert writer_in.wait(WAIT_S)
        assert not late_in.wait(QUIET_S)  # still behind the writer
        writer_out.set()
        assert late_in.wait(WAIT_S)
        late_out.set()

    def test_the_last_reader_out_wakes_a_waiting_writer(self):
        topo = _TopologyLock()
        holds = [(threading.Event(), threading.Event()) for _ in range(2)]
        for entered, release in holds:
            _in_thread(_hold(lambda: topo.shared, entered, release))
            assert entered.wait(WAIT_S)
        writer_in, writer_out = threading.Event(), threading.Event()
        _in_thread(_hold(topo.exclusive, writer_in, writer_out))
        _wait_until(lambda: topo._writers_waiting == 1)
        holds[0][1].set()
        _wait_until(lambda: topo._readers == 1)
        assert not writer_in.wait(QUIET_S)  # one reader still inside
        holds[1][1].set()
        assert writer_in.wait(WAIT_S)  # no lost wake-up
        writer_out.set()

    def test_an_exception_inside_shared_releases_it(self):
        topo = _TopologyLock()
        with pytest.raises(KeyError):
            with topo.shared:
                raise KeyError("boom")
        assert topo._readers == 0
        wrote = threading.Event()
        _, done = _in_thread(_hold(topo.exclusive, wrote, _set_event()))
        assert wrote.wait(WAIT_S)
        assert done.wait(WAIT_S)


def _set_event() -> threading.Event:
    event = threading.Event()
    event.set()
    return event


# --------------------------------------------------------- batch routing


class _Conn:
    """Stands in for a server connection: routing only needs identity."""

    def __init__(self, address):
        self.address = address

    def close(self):
        pass


class _RoutingOnly(LiveClusterClient):
    """A cluster client whose servers are never dialled."""

    def _connect(self, addr):
        return _Conn(addr)


def _cluster(ring_range: int, n: int) -> LiveClusterClient:
    return _RoutingOnly([("10.0.0.1", 7000 + i) for i in range(n)],
                        ring_range=ring_range)


def _per_key(cluster: LiveClusterClient, entries, keys) -> dict:
    groups: dict = {}
    for entry, key in zip(entries, keys):
        groups.setdefault(cluster.clients[cluster.address_for(key)],
                          []).append(entry)
    return groups


@st.composite
def _rings(draw):
    """``(ring_range, hash_mode, bucket positions, owner index per
    bucket, server count)``; identity rings with and without the r-1
    sentinel, so keys past the last bucket wrap to the first."""
    hash_mode = draw(st.sampled_from(["identity", "splitmix"]))
    ring_range = draw(st.integers(2, 1 << 12))
    span = (1 << 64) if hash_mode == "splitmix" else ring_range
    positions = draw(st.sets(st.integers(0, min(span, 1 << 62) - 1),
                             min_size=1, max_size=8))
    if hash_mode == "identity" and draw(st.booleans()):
        positions.add(ring_range - 1)  # the sentinel
    n = draw(st.integers(1, 4))
    owners = [draw(st.integers(0, n - 1)) for _ in positions]
    return ring_range, hash_mode, sorted(positions), owners, n


@settings(max_examples=200, deadline=None)
@given(_rings(), st.data())
def test_batch_grouping_equals_per_key_routing(ring, data):
    ring_range, hash_mode, positions, owners, n = ring
    cluster = _cluster(1 << 12, n)  # the ring is replaced below
    addresses = list(cluster.clients)
    cluster.ring = ConsistentHashRing(ring_range, hash_mode=hash_mode)
    positions = [p for p in positions if p < cluster.ring.ring_range]
    for pos, owner in zip(positions, owners):
        cluster.ring.add_bucket(pos, addresses[owner])
    keys = data.draw(st.lists(st.integers(0, ring_range - 1), max_size=80))
    for entries in (keys, [(k, b"v%d" % i) for i, k in enumerate(keys)]):
        got = cluster._group_by_owner(
            entries, None if entries is keys else keys)
        assert got == _per_key(cluster, entries, keys)


@pytest.mark.parametrize("stray", [-1, 1 << 10])
def test_batch_grouping_rejects_an_out_of_range_identity_key(stray):
    cluster = _cluster(1 << 10, 3)
    with pytest.raises(RingError, match="outside identity hash range"):
        cluster._group_by_owner([1, 2, stray, 3])
    with pytest.raises(RingError):
        cluster.address_for(stray)


# ------------------------------------------------------- one ring lookup


@pytest.fixture
def lookups(monkeypatch):
    """Counts ``ConsistentHashRing.bucket_for_hkey`` calls."""
    calls = []
    original = ConsistentHashRing.bucket_for_hkey

    def counted(self, hkey):
        calls.append(hkey)
        return original(self, hkey)
    monkeypatch.setattr(ConsistentHashRing, "bucket_for_hkey", counted)
    return calls


@pytest.mark.parametrize("replication", [False, True])
def test_a_query_routes_once(lookups, replication):
    servers = [LiveCacheServer(capacity_bytes=1 << 20).start()
               for _ in range(3)]
    cluster = LiveClusterClient([s.address for s in servers],
                                ring_range=1 << 12, replication=replication)
    coordinator = LiveCoordinator(cluster, compute=lambda k: b"v%d" % k)
    try:
        for key in range(0, 1 << 12, 97):
            del lookups[:]
            assert coordinator.query(key) == b"v%d" % key  # miss, fill
            assert len(lookups) == 2  # the get, then the put
            del lookups[:]
            assert coordinator.query(key) == b"v%d" % key  # hit
            assert len(lookups) == 1
            if replication:
                with LiveCacheClient(
                        cluster.replica.buddy_address(key)) as buddy:
                    assert buddy.get(key, replica=True) == b"v%d" % key
        del lookups[:]
        assert cluster.delete(0)
        assert len(lookups) == 1
        assert coordinator.stats.hits == coordinator.stats.misses
    finally:
        cluster.close()
        for s in servers:
            s.stop()


# ------------------------------------------------------ breaker fast path


class _NoLock:
    def __enter__(self):
        raise AssertionError("the breaker took its lock")

    def __exit__(self, *exc):
        return False


def test_breaker_fast_path_takes_no_lock_while_all_closed():
    breaker = CircuitBreaker(threshold=2)
    lock, breaker._lock = breaker._lock, _NoLock()
    assert breaker.allow("a")
    breaker.record_success("a")
    breaker._lock = lock
    assert not breaker.record_failure("a")  # a streak: success must clear
    breaker._lock = _NoLock()
    with pytest.raises(AssertionError, match="took its lock"):
        breaker.record_success("a")
    breaker._lock = lock
    breaker.record_success("a")
    assert breaker.detector.failures("a") == 0
    assert breaker.record_failure("b") is False
    assert breaker.record_failure("b") is True  # opens
    assert not breaker.allow("b")
    breaker._lock = _NoLock()
    with pytest.raises(AssertionError, match="took its lock"):
        breaker.allow("a")  # a breaker is open: the locked path
