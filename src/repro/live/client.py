"""Clients for the live cache cluster.

:class:`LiveCacheClient` speaks to one server; :class:`LiveClusterClient`
is the cooperative view: it owns a
:class:`~repro.core.ring.ConsistentHashRing` whose "nodes" are server
addresses, routes every key through ``h(k)``, and grows the cluster with
the same interval-migration that Algorithm 2 performs — now via the
loss-proof two-phase ``extract_prepare``/``extract_commit`` protocol
(:mod:`repro.live.migration`) instead of a destructive extract.

Deadline propagation: every single-server op accepts ``deadline_ms``, a
remaining time budget forwarded on the wire so the server can refuse
work the caller has already abandoned.  The budget also caps the
client's own retry loop: no retry is scheduled past the deadline.

Batched hot path: :meth:`LiveCacheClient.multi_get` /
:meth:`~LiveCacheClient.multi_put` amortize the round-trip (one frame
with a packed body per chunk, chunks pipelined up to
``pipeline_depth`` deep), and :meth:`LiveClusterClient.get_many` /
:meth:`~LiveClusterClient.put_many` scatter-gather those batches across
ring owners from the calling thread: every owner's first window is
sent (``send_multi_get``/``send_multi_put``, connection locks taken in
address order) before any reply is drained, so the servers overlap
without helper threads.  A fan-out shares one deadline budget and
degrades per shard — an overloaded or dead shard costs misses for its
keys, never the whole batch.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.core.ring import ConsistentHashRing
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.live.migration import RangeTable, finish_move, prepare_move
from repro.live.replica import ReplicaManager
from repro.live.protocol import (
    BACKGROUND, DEADLINE, DELETE, EXTRACT_ABORT, EXTRACT_COMMIT,
    EXTRACT_PREPARE, FOUND, GET, IF_ABSENT, MAX_BATCH, MULTI_GET, MULTI_PUT,
    NONE32, OK, OVERFLOW, PING, PUT, RANGE, RECORDS, REFUSALS, REPLICA, STATS,
    SWEEP, DeadlineError, Frame, FrameReader, ProtocolError, describe,
    enable_nodelay, error_from_reply, pack_keys, pack_records, send_frame,
    send_frames, split_records, unpack_pairs, unpack_records)


def _expiry(deadline_ms: float | None) -> float | None:
    """The monotonic instant a ``deadline_ms`` budget runs out."""
    if deadline_ms is None:
        return None
    return time.monotonic() + deadline_ms / 1000.0


def _remaining_ms(expires_at: float | None) -> float | None:
    """What is left of a budget that runs out at ``expires_at``, in ms."""
    if expires_at is None:
        return None
    return (expires_at - time.monotonic()) * 1000.0


@dataclass
class MultiPutResult:
    """Outcome of a batched put.

    ``stored`` lists every key the server acknowledged as applied (in
    apply order); ``freed`` maps overwritten keys to the bytes their old
    values released.  ``error`` is ``None`` on full success, otherwise
    the typed error that stopped the batch — everything in ``stored``
    was durably applied *before* the error reply, so only the remainder
    needs retrying (and a re-put of an applied record is idempotent).
    """

    stored: list[int] = field(default_factory=list)
    freed: dict[int, int] = field(default_factory=dict)
    error: ProtocolError | None = None
    #: keys an ``if_absent`` batch left untouched because the server
    #: already held a (newer) value for them.
    skipped: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def acked(self) -> int:
        return len(self.stored)


class LiveCacheClient:
    """A connection to one cache server (thread-safe via a lock).

    Every request — point, range or batch — follows one rule
    (:meth:`_retrying`).  A typed refusal
    (:data:`~repro.live.protocol.REFUSALS`: overloaded, deadline,
    server error) is a complete answer: it is raised at once and the
    connection kept, since the caller recomputes.  Any other failure (a
    dropped connection, a garbled or out-of-step reply) drops the
    connection, and the request is resent on a fresh one under a
    configurable :class:`~repro.faults.retry.RetryPolicy` (deadline +
    exponential backoff + jitter), so a server restart doesn't strand
    long-lived clients.

    Every op is safe to resend.  ``put`` is idempotent *here* because
    the cache stores derived results: replaying ``put(k, v)`` writes
    the same bytes.  ``sweep`` is read-only.  ``extract_prepare``
    retains its records (a replay issues a fresh token and the stale
    one lease-expires), and ``extract_commit``/``extract_abort`` are
    idempotent at the server, so their replays are no-ops.
    """

    def __init__(self, address: tuple[str, int], timeout: float = 5.0,
                 retry: RetryPolicy | None = None,
                 rng: random.Random | None = None,
                 pipeline_depth: int = 4,
                 max_batch: int = MAX_BATCH) -> None:
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.address = address
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: batched requests kept in flight before draining replies
        #: (replies correlate positionally: the protocol answers in
        #: order on one connection).
        self.pipeline_depth = pipeline_depth
        #: records per wire batch; larger multi-ops are chunked and the
        #: chunks pipelined.  Clamped to the protocol's MAX_BATCH.
        self.max_batch = max(1, min(max_batch, MAX_BATCH))
        # Per-address deterministic jitter stream keeps tests reproducible
        # while still decorrelating distinct clients.
        self._rng = rng if rng is not None else random.Random(str(address))
        self._sock: socket.socket | None = socket.create_connection(
            address, timeout=timeout)
        enable_nodelay(self._sock)
        self._reader = FrameReader(self._sock)
        self._lock = threading.Lock()
        self.reconnects = 0
        #: idempotent requests re-attempted after a transport failure
        self.retries = 0

    def close(self) -> None:
        """Close the connection."""
        with self._lock:
            self._drop_locked()

    def __enter__(self) -> "LiveCacheClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._sock = None

    def _ensure_locked(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(self.address,
                                                  timeout=self.timeout)
            enable_nodelay(self._sock)
            self._reader = FrameReader(self._sock)
            self.reconnects += 1
        return self._sock

    @staticmethod
    def _stamp_deadline(frame: Frame, expires_at: float | None) -> Frame:
        """Attach the *remaining* budget so each retry ships less."""
        if expires_at is None:
            return frame
        remaining_ms = int(_remaining_ms(expires_at))
        if remaining_ms <= 0:
            raise DeadlineError("deadline_exceeded")
        return frame._replace(ms=min(remaining_ms, NONE32))

    def _note_retry(self, failures: int, exc: BaseException) -> None:
        self.retries += 1

    def _retrying(self, attempt: Callable[[], object],
                  failed: BaseException, started: float):
        """The rest of a request whose first attempt, made inline by the
        caller from ``started`` (lock held), failed with ``failed`` — the
        one retry rule of every request.  A typed refusal
        (:data:`~repro.live.protocol.REFUSALS`) is raised at once with
        the connection kept, so callers re-raise it without coming here;
        any other failure leaves the stream out of step, so the
        connection is dropped before the next attempt.  The inline
        attempt is the policy's first: same attempt count, same
        deadline, same backoff."""
        self._drop_locked()

        def guarded():
            try:
                return attempt()
            except REFUSALS:
                raise
            except (ProtocolError, OSError):
                self._drop_locked()
                raise
        return call_with_retry(guarded, self.retry,
                               retry_on=(ProtocolError, OSError),
                               give_up_on=REFUSALS, rng=self._rng,
                               on_retry=self._note_retry,
                               failed=failed, started=started)

    def _request(self, frame: Frame, expires_at: float | None,
                 default: str) -> tuple[Frame, list | tuple]:
        """One attempt of :meth:`_call` (lock held)."""
        send_frame(self._ensure_locked(),
                   self._stamp_deadline(frame, expires_at))
        reply = self._reader.recv_frame()
        if reply.code != OK:
            raise error_from_reply(reply, default)
        if frame.code in (SWEEP, EXTRACT_PREPARE):
            return reply, self._recv_records(reply.n)
        return reply, ()

    def _call(self, frame: Frame, deadline_ms: float | None = None,
              default: str = "request failed"
              ) -> tuple[Frame, list | tuple]:
        """One request → its ``OK`` reply and, for a range op, the
        records streamed after it (else ``()``).  The first attempt
        runs right here; only a transport failure enters
        :meth:`_retrying`."""
        started = time.monotonic()
        expires_at = (None if deadline_ms is None
                      else started + deadline_ms / 1000.0)
        with self._lock:
            try:
                return self._request(frame, expires_at, default)
            except REFUSALS:
                raise
            except (ProtocolError, OSError) as exc:
                return self._retrying(
                    lambda: self._request(frame, expires_at, default),
                    exc, started)

    @staticmethod
    def _flags(priority: str | None = None, if_absent: bool = False,
               replica: bool = False) -> int:
        return ((BACKGROUND if priority == "background" else 0)
                | (IF_ABSENT if if_absent else 0)
                | (REPLICA if replica else 0))

    def ping(self) -> bool:
        """Liveness check (raises if the server cannot answer)."""
        self._call(Frame(PING), default="ping failed")
        return True

    def get(self, key: int, deadline_ms: float | None = None,
            priority: str | None = None,
            replica: bool = False) -> bytes | None:
        """Fetch a value, or ``None`` on miss.  ``replica=True`` reads
        the server's replica namespace instead of the primary store."""
        reply, _ = self._call(Frame(GET, self._flags(priority,
                                                    replica=replica), key),
                              deadline_ms, "get failed")
        return reply.body if reply.flags & FOUND else None

    def put(self, key: int, value: bytes, deadline_ms: float | None = None,
            priority: str | None = None, if_absent: bool = False,
            replica: bool = False) -> int:
        """Store a value; returns bytes freed by an overwrite (0 if new).

        ``if_absent`` makes the write conditional: a key the server
        already holds is left untouched (the migration-copy discipline —
        whatever is resident arrived after the snapshot and is newer).

        Raises
        ------
        CapacityError
            On server-side overflow (the live server does not split
            itself; the coordinator handles growth),
            :class:`~repro.live.protocol.OverloadedError` on shed, or
            :class:`~repro.live.protocol.DeadlineError` on an expired
            budget.
        """
        flags = self._flags(priority, if_absent, replica)
        reply, _ = self._call(Frame(PUT, flags, key, body=value),
                              deadline_ms, "put failed")
        return reply.n

    def delete(self, key: int, deadline_ms: float | None = None,
               replica: bool = False) -> tuple[bool, int]:
        """Remove a key; returns ``(existed, bytes_freed)``."""
        reply, _ = self._call(Frame(DELETE, self._flags(replica=replica),
                                    key), deadline_ms, "delete failed")
        return bool(reply.flags & FOUND), reply.n

    # --------------------------------------------------------- batch ops

    def _chunks(self, items: list) -> list[list]:
        return [items[i:i + self.max_batch]
                for i in range(0, len(items), self.max_batch)]

    def _recv_records(self, count: int,
                      first: Frame | None = None) -> list:
        """Read ``RECORDS`` chunks (after ``first``) until ``count``."""
        records: list = []
        frame = first
        while frame is not None or len(records) < count:
            if frame is None:
                frame = self._reader.recv_frame()
            if frame.code != RECORDS:
                raise ProtocolError(f"expected records, got "
                                    f"{describe(frame)}")
            records += unpack_records(frame)
            frame = None
        if len(records) != count:
            raise ProtocolError(f"{len(records)} records for {count} asked")
        return records

    def _send_window(self, op: int, chunks: list, run: dict,
                     expires_at: float | None, flags: int) -> None:
        """Put the next chunks on the wire — one coalesced write — until
        ``pipeline_depth`` are in flight (none after a refusal).  A
        budget spent before a chunk goes out refuses the rest like a
        ``DEADLINE`` reply would: the replies in flight are still read,
        so the stream stays in step."""
        window = []
        pending = run["pending"]
        while (run["next"] < len(chunks) and run["error"] is None
               and len(pending) < self.pipeline_depth):
            items, body = chunks[run["next"]]
            try:
                window.append(self._stamp_deadline(
                    Frame(op, flags, n=len(items), body=body), expires_at))
            except DeadlineError as exc:
                run["error"] = exc
                break
            pending.append(run["next"])
            run["next"] += 1
        if window:
            send_frames(self._sock, window)

    def _start_pass(self, op: int, chunks: list, state: dict,
                    expires_at: float | None, flags: int) -> dict:
        """Open one pipelined pass over the chunks not yet acknowledged:
        (re)connect and send the first window.

        ``state["done"]`` — the count of fully acknowledged leading
        chunks — survives a dropped connection, so a retry resends only
        the unacknowledged suffix.  Returns the pass's cursor for
        :meth:`_finish_pass`.
        """
        run = {"next": state["done"], "pending": [], "error": None}
        self._ensure_locked()
        self._send_window(op, chunks, run, expires_at, flags)
        return run

    def _finish_pass(self, op: int, chunks: list, state: dict, run: dict,
                     expires_at: float | None, flags: int) -> None:
        """Drain a pass's replies in order (they correlate positionally),
        refilling the window as replies free it.  A typed refusal stops
        the sending; the replies already in flight are drained, then it
        is raised.  Any other reply is out of step and raised at once.
        """
        pending = run["pending"]
        while pending:
            reply = self._reader.recv_frame()
            idx = pending.pop(0)
            if reply.code == (RECORDS if op == MULTI_GET else OK):
                if op == MULTI_GET:
                    for key, value in self._recv_records(
                            len(chunks[idx][0]), reply):
                        if value is not None:
                            state["found"][key] = value
                else:
                    self._note_applied(state, reply)
                if idx == state["done"]:
                    state["done"] = idx + 1
            else:
                error = error_from_reply(reply, "batch failed")
                if not isinstance(error, REFUSALS):
                    raise error
                if op == MULTI_PUT and reply.code in (OVERFLOW, DEADLINE):
                    # The chunk's keys applied before it stopped.
                    self._note_applied(state, reply)
                run["error"] = run["error"] or error
            self._send_window(op, chunks, run, expires_at, flags)
        if run["error"] is not None:
            raise run["error"]

    @staticmethod
    def _note_applied(state: dict, reply: Frame) -> None:
        """Record a multi_put reply's ``(key, freed)`` pairs: every key
        it applied (``freed`` bytes) or skipped (``NONE32``)."""
        for key, freed in unpack_pairs(reply):
            if freed == NONE32:
                state["skipped"].append(key)
            else:
                state["stored"].append(key)
                if freed:
                    state["freed"][key] = freed

    def _pipelined(self, op: int, chunks: list, state: dict,
                   deadline_ms: float | None, flags: int
                   ) -> Callable[[], None]:
        """Phase one of a pipelined batch: take this connection's lock
        and send the first window.  Returns phase two, the *drain*: it
        reads the replies, retries the unacknowledged suffix under the
        client's one retry rule (:meth:`_retrying`), and releases the
        lock however it ends.  A failure while sending is held back for
        the drain, so the policy sees it as the first attempt's.  The
        caller must call the drain exactly once.
        """
        started = time.monotonic()
        expires_at = (None if deadline_ms is None
                      else started + deadline_ms / 1000.0)

        def attempt(run: dict | None = None) -> None:
            if run is None:
                run = self._start_pass(op, chunks, state, expires_at, flags)
            self._finish_pass(op, chunks, state, run, expires_at, flags)
        self._lock.acquire()
        try:
            first = self._start_pass(op, chunks, state, expires_at, flags)
        except (ProtocolError, OSError) as exc:
            first = exc
        except BaseException:
            self._lock.release()
            raise

        def drain() -> None:
            try:
                try:
                    if isinstance(first, BaseException):
                        raise first
                    attempt(first)
                except REFUSALS:
                    raise
                except (ProtocolError, OSError) as exc:
                    self._retrying(attempt, exc, started)
            finally:
                self._lock.release()
        return drain

    def send_multi_get(self, keys: list[int],
                       deadline_ms: float | None = None,
                       priority: str | None = None,
                       replica: bool = False
                       ) -> Callable[[], dict[int, bytes]]:
        """:meth:`multi_get` split in two: send now, collect later.

        Takes the connection's lock and sends the first pipeline window;
        returns a zero-arg drain that reads the replies, returns
        ``{key: value}`` for the found keys (or raises like
        :meth:`multi_get`), and releases the lock.  A cluster fan-out
        sends to every shard before it drains any.
        """
        if not keys:
            return dict  # nothing to send: the drain is an empty result
        chunks = [(chunk, pack_keys(chunk))
                  for chunk in self._chunks(list(keys))]
        state: dict = {"done": 0, "found": {}}
        drain = self._pipelined(MULTI_GET, chunks, state, deadline_ms,
                                self._flags(priority, replica=replica))

        def collect() -> dict[int, bytes]:
            drain()
            return state["found"]
        return collect

    def multi_get(self, keys: list[int], deadline_ms: float | None = None,
                  priority: str | None = None,
                  replica: bool = False) -> dict[int, bytes]:
        """Batched fetch: returns ``{key: value}`` for the found keys.

        One wire round-trip per ``max_batch`` keys (chunks pipelined up
        to ``pipeline_depth`` deep) instead of one per key.  Retryable —
        reads are idempotent, and a reconnect resends only the chunks
        whose replies never arrived.
        """
        return self.send_multi_get(keys, deadline_ms, priority, replica)()

    def send_multi_put(self, items: list[tuple[int, bytes]],
                       deadline_ms: float | None = None,
                       priority: str | None = None,
                       if_absent: bool = False,
                       replica: bool = False
                       ) -> Callable[[], MultiPutResult]:
        """:meth:`multi_put` split in two, like :meth:`send_multi_get`:
        the returned drain yields the :class:`MultiPutResult` (it never
        raises a protocol error)."""
        if not items:
            return MultiPutResult  # nothing to send: an empty result
        chunks = [(chunk, pack_records(chunk))
                  for chunk in split_records(list(items), self.max_batch)]
        state: dict = {"done": 0, "stored": [], "freed": {}, "skipped": []}
        drain = self._pipelined(MULTI_PUT, chunks, state, deadline_ms,
                                self._flags(priority, if_absent, replica))

        def collect() -> MultiPutResult:
            error: ProtocolError | None = None
            try:
                drain()
            except ProtocolError as exc:
                error = exc
            except OSError as exc:
                error = ProtocolError(str(exc))
                error.__cause__ = exc
            return MultiPutResult(state["stored"], state["freed"], error,
                                  state["skipped"])
        return collect

    def multi_put(self, items: list[tuple[int, bytes]],
                  deadline_ms: float | None = None,
                  priority: str | None = None,
                  if_absent: bool = False,
                  replica: bool = False) -> MultiPutResult:
        """Batched store; never raises — the :class:`MultiPutResult`
        carries the partial-apply state a caller needs either way.

        Transport failures retry the unacknowledged suffix under the
        client's :class:`~repro.faults.retry.RetryPolicy` (puts are
        idempotent: re-sending an applied record rewrites the same
        derived bytes).  A server refusal (overloaded, deadline,
        overflow) stops the batch and surfaces as ``result.error`` with
        ``result.stored`` telling exactly which keys made it.
        """
        return self.send_multi_put(items, deadline_ms, priority, if_absent,
                                   replica)()

    # --------------------------------------------------------- range ops

    def sweep(self, lo: int, hi: int,
              replica: bool = False) -> list[tuple[int, bytes]]:
        """Read all records in ``[lo, hi]`` (non-destructive, retryable)."""
        _, records = self._call(Frame(SWEEP, self._flags(replica=replica),
                                      lo, body=RANGE.pack(hi, 0)),
                                default="sweep failed")
        return records

    # ------------------------------------------------- two-phase extract

    def extract_prepare(self, lo: int, hi: int,
                        lease_s: float | None = None,
                        replica: bool = False
                        ) -> tuple[str, list[tuple[int, bytes]]]:
        """Snapshot ``[lo, hi]`` under a transfer token; records are
        **retained** at the server until :meth:`extract_commit`.

        Retryable: a replay issues a fresh token and streams the same
        (still-present) records; an orphaned token simply lease-expires.
        ``replica=True`` runs against the replica namespace (its own
        trees *and* its own transfer ledger) — handoff drains and
        anti-entropy sweeps use this.
        """
        lease_ms = 0 if lease_s is None else max(1, round(lease_s * 1000))
        reply, records = self._call(Frame(
            EXTRACT_PREPARE, self._flags(replica=replica), lo,
            body=RANGE.pack(hi, lease_ms)), default="extract_prepare failed")
        return reply.body.decode(), records

    def extract_commit(self, token: str, replica: bool = False) -> int:
        """Delete the records snapshotted under ``token``; idempotent.

        Returns the number of records removed (0 when the token is
        unknown — already committed, aborted, or expired — which is
        exactly what a retried commit after a lost reply should see).
        ``replica`` must match the prepare: each namespace has its own
        transfer ledger.
        """
        reply, _ = self._call(Frame(EXTRACT_COMMIT,
                                    self._flags(replica=replica),
                                    body=token.encode()),
                              default="extract_commit failed")
        return reply.n

    def extract_abort(self, token: str, replica: bool = False) -> bool:
        """Release a prepared snapshot without deleting; idempotent."""
        reply, _ = self._call(Frame(EXTRACT_ABORT,
                                    self._flags(replica=replica),
                                    body=token.encode()),
                              default="extract_abort failed")
        return bool(reply.flags & FOUND)

    def extract(self, lo: int, hi: int,
                replica: bool = False) -> list[tuple[int, bytes]]:
        """Read *and remove* all records in ``[lo, hi]`` — two-phase: a
        crash between the phases leaves the records on the server (the
        prepare lease expires) instead of losing them."""
        token, records = self.extract_prepare(lo, hi, replica=replica)
        self.extract_commit(token, replica=replica)
        return records

    def stats(self) -> dict:
        """Server-side counters (store + admission gate + transfers).

        ``multi_ops``, ``batched_keys`` and ``max_batch`` count the
        batches the primary namespace ran.  A replica-flagged batch is
        counted in the replica namespace, which ``stats`` does not
        report; a batch shed at admission or dropped at its deadline is
        not counted at all.
        """
        reply, _ = self._call(Frame(STATS), default="stats failed")
        return json.loads(reply.body)


class _TopologyLock:
    """Writer-priority reader-writer lock for cluster topology.

    Every routed data op (get/put/delete and the batched fan-outs)
    holds the lock *shared* for its full duration
    (``with lock.shared:``); topology mutations (add/remove/fail/
    restore) hold it *exclusive* (``with lock.exclusive():``) around
    the move's prepare, the ring edit and forwarding registration.
    That closes the straggler window: no op that resolved an owner
    under the old topology can still be in flight when the ring
    changes, so the snapshot is complete — nothing can sneak a write
    into the source interval afterwards.

    Writer priority: once a topology change is waiting, new readers
    queue behind it, so elastic operations cannot be starved by a busy
    workload.

    The shared hold is on every routed op, so it is one reusable
    context object over a plain lock, and a reader leaving wakes the
    waiters only when a writer is waiting (the writer registers itself
    under the same lock before it checks for readers, so no wake-up is
    lost).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        #: ``with topo.shared:`` — the routed ops' hold
        self.shared = _SharedHold(self)

    @contextmanager
    def exclusive(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            except BaseException:
                # Readers queued behind this writer must not stay parked.
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _SharedHold:
    """:attr:`_TopologyLock.shared`: enter to hold the lock shared."""

    __slots__ = ("_topo",)

    def __init__(self, topo: _TopologyLock) -> None:
        self._topo = topo

    def __enter__(self) -> None:
        topo = self._topo
        with topo._lock:
            while topo._writer or topo._writers_waiting:
                topo._cond.wait()
            topo._readers += 1

    def __exit__(self, *exc) -> None:
        topo = self._topo
        with topo._lock:
            topo._readers -= 1
            if not topo._readers and topo._writers_waiting:
                topo._cond.notify_all()


class LiveClusterClient:
    """Consistent-hash routing over live cache servers.

    Parameters
    ----------
    addresses:
        Initial server ``(host, port)`` list; servers are assigned evenly
        spaced buckets (plus the sentinel at ``r-1``).
    ring_range:
        The hash line ``[0, r)``; keys must be below it (identity mode).
    replication:
        Enable ring-successor buddy replication
        (:class:`~repro.live.replica.ReplicaManager`): every put is
        mirrored to its bucket's successor owner, reads in failed-over
        ranges consult the buddy before reporting a miss, writes during
        an outage leave hints the restore drains home, and topology
        changes trigger an anti-entropy rebuild.  Off by default — the
        unreplicated cluster behaves exactly as before.

    Examples
    --------
    See ``examples/live_cluster.py`` and ``tests/test_live.py``.
    """

    def __init__(self, addresses: list[tuple[str, int]],
                 ring_range: int = 1 << 32,
                 retry: RetryPolicy | None = None,
                 timeout: float = 5.0,
                 replication: bool = False) -> None:
        if not addresses:
            raise ValueError("need at least one server")
        self.ring = ConsistentHashRing(ring_range=ring_range)
        self.retry = retry
        self.timeout = timeout
        self.clients: dict[tuple[str, int], LiveCacheClient] = {}
        #: buckets owned by servers that died, keyed by address — the
        #: state :meth:`restore_server` needs to undo a failover.
        self._failed: dict[tuple[str, int], list[int]] = {}
        #: shard branches of batched fan-outs that degraded to misses
        #: (guarded by ``_failures_lock``: fan-outs run on many threads)
        self.batch_shard_failures = 0
        self._failures_lock = threading.Lock()
        #: serialises routed ops (shared) against topology edits
        #: (exclusive) — see :class:`_TopologyLock`.
        self._topo = _TopologyLock()
        #: in-flight migration forwarding: ``(lo, hi, src_client)``
        #: entries.  A miss at the new owner of a key inside a
        #: forwarded interval re-reads the migration source before
        #: declaring the key absent.  An entry whose source is still a
        #: member is a move a failed reshape left pending.
        self._forwards = RangeTable()
        #: still-reachable clients of failed-over servers (forwarding
        #: sources until restore), keyed by address.
        self._forward_clients: dict[tuple[str, int], LiveCacheClient] = {}
        #: buddy-replication layer, or ``None`` when disabled.
        self.replica: ReplicaManager | None = (
            ReplicaManager(self) if replication else None)
        r = ring_range
        n = len(addresses)
        for i, addr in enumerate(addresses):
            client = self._connect(addr)
            self.clients[addr] = client
            self.ring.add_bucket((i + 1) * r // n - 1, addr)

    def _connect(self, addr: tuple[str, int]) -> LiveCacheClient:
        return LiveCacheClient(addr, timeout=self.timeout, retry=self.retry)

    def close(self) -> None:
        """Close all server connections."""
        for client in list(self.clients.values()):
            client.close()
        for client in list(self._forward_clients.values()):
            client.close()
        self._forward_clients.clear()

    def __enter__(self) -> "LiveClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- routing

    def address_for(self, key: int) -> tuple[str, int]:
        """The address responsible for ``key`` under ``h(k)``."""
        return self.ring.node_for_key(key)

    def client_for(self, key: int) -> LiveCacheClient:
        """The server responsible for ``key`` under ``h(k)``."""
        return self.clients[self.address_for(key)]

    def _locate(self, key: int) -> tuple[int, int]:
        """``(h'(k), h(k))``: ``key``'s hash position and its bucket —
        the one ring lookup a routed op makes.  The owner
        (``ring.node_map[bucket]``) and the buddy
        (``ring.successor_owner(bucket)``) both come from that bucket.
        Call it under the topology hold that uses the answer."""
        hkey = self.ring.hash_key(key)
        return hkey, self.ring.bucket_for_hkey(hkey)

    @property
    def total_retries(self) -> int:
        """Idempotent-request retries summed over live connections."""
        return sum(c.retries for c in list(self.clients.values()))

    def get(self, key: int, deadline_ms: float | None = None,
            priority: str | None = None,
            gate: Callable[[tuple[str, int]], None] | None = None
            ) -> bytes | None:
        """Routed fetch.

        While a migration copy is in flight for ``key``'s interval, a
        miss at the new owner falls back to the migration source and
        then re-checks the new owner: the record lives at the source
        until the copy lands and at the destination from then on, so
        the dst → src → dst read sequence can only report a miss for a
        key that genuinely had no committed value.
        With replication enabled, a key inside a failed-over range gets
        one more fallback after the forward chain: its claimed buddy's
        replica namespace.  Owner first, replica last — an outage write
        lands on the interim owner, so the newest value always wins.

        ``gate``, when given, is called with the owner's address under
        the same topology hold as the request, before anything is sent;
        an exception it raises stops the fetch.  The coordinator checks
        its circuit breaker there, so the address it charges is the one
        the request went to, from the op's one ring lookup.
        """
        with self._topo.shared:
            hkey, bucket = self._locate(key)
            addr = self.ring.node_map[bucket]
            if gate is not None:
                gate(addr)
            owner = self.clients[addr]
            value = owner.get(key, deadline_ms=deadline_ms,
                              priority=priority)
            if value is None:
                src = self._forwards.lookup(hkey)
                if src is not None:
                    value = src.get(key, deadline_ms=deadline_ms,
                                    priority=priority)
                    if value is None:
                        # The hold pins the owner: re-check the same one.
                        value = owner.get(key, deadline_ms=deadline_ms,
                                          priority=priority)
            if value is None and self.replica is not None:
                value = self.replica.read(key, hkey, deadline_ms=deadline_ms,
                                          priority=priority)
            return value

    def put(self, key: int, value: bytes, deadline_ms: float | None = None,
            priority: str | None = None) -> None:
        """Routed store at ``key``'s ring owner.

        With replication enabled the write is primary-then-buddy under
        the key's replica lock (see
        :meth:`~repro.live.replica.ReplicaManager.replicate`); a failed
        replica leg raises a
        :class:`~repro.live.replica.ReplicaWriteError` *after* the
        primary applied.  It is not a typed refusal, so callers treating
        it as "may have applied" (as the consistency harness does) stay
        sound.
        """
        with self._topo.shared:
            hkey, bucket = self._locate(key)
            owner = self.clients[self.ring.node_map[bucket]]
            if self.replica is None:
                owner.put(key, value, deadline_ms=deadline_ms,
                          priority=priority)
                return
            with self.replica.key_locks((key,)):
                owner.put(key, value, deadline_ms=deadline_ms,
                          priority=priority)
                self.replica.replicate(key, value, hkey, bucket,
                                       deadline_ms=deadline_ms,
                                       priority=priority)

    def delete(self, key: int) -> bool:
        """Routed delete (also removes any in-flight migration copy so
        the source cannot resurrect the key, and — with replication —
        the buddy copy, best-effort)."""
        with self._topo.shared:
            hkey, bucket = self._locate(key)
            found, _ = self.clients[self.ring.node_map[bucket]].delete(key)
            src = self._forwards.lookup(hkey)
            if src is not None:
                try:
                    src_found, _ = src.delete(key)
                except (ProtocolError, OSError):
                    src_found = False
                found = found or src_found
            if self.replica is not None:
                with self.replica.key_locks((key,)):
                    self.replica.forget(key, hkey, bucket)
            return found

    # ---------------------------------------------------- batched fan-out

    def _note_shard_failure(self) -> None:
        with self._failures_lock:
            self.batch_shard_failures += 1

    @staticmethod
    def _lock_order(groups: dict) -> list[tuple[LiveCacheClient, list]]:
        """``{client: entries}`` as pairs sorted by server address: the
        one order every fan-out takes connection locks in, so fan-outs
        on concurrent threads can never wait on each other in a cycle."""
        return sorted(groups.items(), key=lambda kv: kv[0].address)

    def _group_by_owner(self, entries, keys=None
                        ) -> dict[LiveCacheClient, list]:
        """Split batch entries across ring owners (``h(k)`` routing),
        each owner's entries in input order.  ``keys`` are the entries'
        keys (default: the entries themselves).

        One pass in hash order, one ring lookup per run of positions on
        one bucket (:meth:`ConsistentHashRing.runs`).
        """
        ring = self.ring
        hkeys = ring.hash_keys(entries if keys is None else keys)
        order = sorted(range(len(hkeys)), key=hkeys.__getitem__)
        ordered = [hkeys[i] for i in order]
        runs: dict[LiveCacheClient, list[int]] = {}
        for bucket, start, end in ring.runs(ordered):
            runs.setdefault(self.clients[ring.node_map[bucket]],
                            []).extend(order[start:end])
        if len(runs) == 1:
            return {client: list(entries) for client in runs}
        return {client: [entries[i] for i in sorted(indices)]
                for client, indices in runs.items()}

    def _fan_out(self, branches: list) -> list:
        """Scatter-gather on the calling thread, in two phases.

        Each branch (a zero-arg callable, one per server, in lock order)
        takes its connection's lock, sends its first pipeline window and
        returns a zero-arg drain.  Once every server has its requests,
        the drains run in the same order, each reading one server's
        replies and releasing its lock — the servers work in parallel
        while this thread waits on the first.  Returns the drains'
        results in branch order.
        """
        drains: list = []
        try:
            for branch in branches:
                drains.append(branch())
        finally:
            # Every started branch holds a lock only its drain releases.
            results, error = [], None
            for drain in drains:
                try:
                    results.append(drain())
                except BaseException as exc:
                    error = error or exc
            if error is not None:
                raise error
        return results

    def _fetch_many(self, groups, deadline_ms: float | None,
                    priority: str | None = None,
                    replica: bool = False) -> dict[int, bytes]:
        """One fan-out of ``multi_get`` over ``{client: keys}``, merged.
        A failed server contributes misses for its keys and is counted
        in ``batch_shard_failures``; each server gets the budget that
        remains when its request is sent."""
        if not groups:
            return {}
        expires_at = _expiry(deadline_ms)

        def branch(client, keys):
            drain = client.send_multi_get(
                keys, _remaining_ms(expires_at), priority, replica)

            def collect() -> dict[int, bytes]:
                try:
                    return drain()
                except (ProtocolError, OSError):
                    self._note_shard_failure()
                    return {}
            return collect

        found: dict[int, bytes] = {}
        for part in self._fan_out([lambda c=c, g=g: branch(c, g)
                                   for c, g in self._lock_order(groups)]):
            found.update(part)
        return found

    def _put_groups(self, groups, deadline_ms: float | None,
                    priority: str | None = None, replica: bool = False
                    ) -> list[MultiPutResult]:
        """One fan-out of ``multi_put`` over ``{client: records}``: one
        result per server."""
        if not groups:
            return []
        expires_at = _expiry(deadline_ms)
        return self._fan_out([
            lambda c=c, g=g: c.send_multi_put(
                g, _remaining_ms(expires_at), priority, replica=replica)
            for c, g in self._lock_order(groups)])

    def get_many(self, keys, deadline_ms: float | None = None,
                 priority: str | None = None) -> dict[int, bytes]:
        """Scatter-gather fetch: group keys by ring owner, one pipelined
        ``multi_get`` per server (all sent before any is drained), merge
        the results.

        Degrades per shard: an unreachable, overloaded, or out-of-budget
        shard contributes misses for *its* keys — the rest of the batch
        still returns.  The ``deadline_ms`` budget is shared by the
        whole fan-out, not per shard.
        """
        keys = list(keys)
        if not keys:
            return {}
        expires_at = _expiry(deadline_ms)
        with self._topo.shared:
            found = self._fetch_many(self._group_by_owner(keys),
                                     _remaining_ms(expires_at), priority)
            if self._forwards:
                self._fetch_forwarded(keys, found, expires_at, priority)
            if self.replica is not None:
                self.replica.fill_from_replicas(
                    keys, found,
                    deadline_ms=_remaining_ms(expires_at),
                    priority=priority)
            return found

    def _fetch_forwarded(self, keys, found: dict, expires_at, priority
                         ) -> None:
        """Resolve batch misses through in-flight migration sources.

        Same dst → src → dst discipline as :meth:`get`, batched: keys
        still missing after the owner pass are retried at their
        forwarding source, and keys the source also misses get one
        re-read at the (current) owner in case the copy landed between
        the two reads.
        """
        by_src: dict[LiveCacheClient, list[int]] = {}
        for key in keys:
            if key in found:
                continue
            src = self._forwards.lookup(self.ring.hash_key(key))
            if src is not None:
                by_src.setdefault(src, []).append(key)
        found.update(self._fetch_many(by_src, _remaining_ms(expires_at),
                                      priority))
        recheck = [k for group in by_src.values() for k in group
                   if k not in found]
        found.update(self._fetch_many(self._group_by_owner(recheck),
                                      _remaining_ms(expires_at),
                                      priority))

    def put_many(self, items, deadline_ms: float | None = None,
                 priority: str | None = None) -> int:
        """Scatter-gather store: one ``multi_put`` per owning server, all
        sent before any is drained, sharing one deadline budget.
        Returns the number of records actually stored.

        A failed shard is dropped writes for its keys (counted in
        ``batch_shard_failures``) — the cache holds derived bytes, so
        the cost is a future miss, never correctness.

        With buddy replication the primary fan-out runs under the
        batch's key locks, then a replica fan-out for the keys the
        primaries acked.  Only keys whose *replica also* landed count
        toward the returned total — a batch with failed replica legs
        reads as partially applied, which conservative consumers (the
        consistency harness) treat as "unknown whether applied", never
        as refused.
        """
        items = list(items)
        if not items:
            return 0
        expires_at = _expiry(deadline_ms)
        with self._topo.shared:
            if self.replica is None:
                return len(self._put_primaries(items, expires_at, priority))
            values = dict(items)
            with self.replica.key_locks(list(values)):
                stored = self._put_primaries(items, expires_at, priority)
                replicated = self.replica.replicate_many(
                    [(k, values[k]) for k in stored],
                    deadline_ms=_remaining_ms(expires_at),
                    priority=priority)
            return len(set(stored) & set(replicated))

    def _put_primaries(self, items, expires_at, priority) -> list[int]:
        """:meth:`put_many`'s primary leg: one fan-out over the owners.
        Returns the stored keys (each failed shard counted)."""
        stored: list[int] = []
        for result in self._put_groups(
                self._group_by_owner(items, [k for k, _ in items]),
                _remaining_ms(expires_at), priority):
            stored += result.stored
            if result.error is not None:
                self._note_shard_failure()
        return stored

    # -------------------------------------------------------------- growth

    def add_server(self, address: tuple[str, int], bucket: int) -> int:
        """Grow the cluster: new bucket + Algorithm 2 over the wire.

        The new bucket's interval moves from the server that previously
        owned it to the new one as one two-phase range move
        (:func:`~repro.live.migration.prepare_move` under the exclusive
        topology lock together with the ring edit, then
        :func:`~repro.live.migration.finish_move` outside it): a crash
        mid-migration leaves the records on the source, never lost.
        Returns the number of records the new server stored.

        If the source refuses the prepare (overloaded, unreachable), the
        ring edit is rolled back and the error raised: routing is
        exactly as before the call.  Once any client can route a write
        to the new bucket the source interval is already frozen.  The
        copy then runs *with* traffic flowing: writes go to the new
        owner, the copy is ``if_absent`` (a snapshot record never
        clobbers a newer write), and reads that miss at the new owner
        follow the forwarding entry back to the source until the copy
        commits.  A failed copy keeps that entry, so reads still reach
        the records it left at the source.
        """
        if address in self.clients:
            raise ValueError(f"server {address} already in the cluster")
        new_client = self._connect(address)
        with self._topo.exclusive():
            src = self.clients[self.ring.node_for_hkey(bucket)]
            self.ring.add_bucket(bucket, address)
            segments = self.ring.interval_segments(bucket)
            try:
                move = prepare_move(src, segments)
            except BaseException:
                self.ring.remove_bucket(bucket)
                new_client.close()
                raise
            self.clients[address] = new_client
            fwd = self._forwards.add((lo, hi, src) for lo, hi in segments)
        moved = self._finish(move, new_client, fwd)
        if self.replica is not None:
            # The split moved a range to the new owner, which moved the
            # range's buddy (and the predecessor bucket's): re-place.
            self.replica.rebuild_touching([bucket])
        return moved

    def _finish(self, move, dest: LiveCacheClient, fwd: list) -> int:
        """A reshape's second half, outside the topology lock: finish
        the move into ``dest``, then drop its forwarding entries.  A
        failed copy raises with the entries kept — reads still reach the
        records at the source, and the entries mark the move pending
        for the reshape's retry (:meth:`_finish_pending`)."""
        moved = len(finish_move(move, dest))
        self._forwards.drop(fwd)
        return moved

    def _finish_pending(self, entries: list) -> int:
        """Re-run moves a failed reshape left pending: each forwarding
        entry is cut at the current bucket boundaries and every piece
        moved from the entry's source to its current owner, one
        prepare (exclusive) and finish per piece.  Each entry is dropped
        once all its pieces have landed.  Returns records moved."""
        moved = 0
        for entry in entries:
            lo, hi, src = entry
            while lo <= hi:
                with self._topo.exclusive():
                    bucket = self.ring.bucket_for_hkey(lo)
                    end = hi if bucket < lo else min(hi, bucket)
                    move = prepare_move(src, [(lo, end)])
                    dest = self.clients[self.ring.node_map[bucket]]
                moved += len(finish_move(move, dest))
                lo = end + 1
            self._forwards.drop([entry])
        return moved

    def remove_server(self, address: tuple[str, int]) -> int:
        """Shrink the cluster: move a server's records to the ring
        successors of its buckets (the contraction counterpart of
        :meth:`add_server`), drop its buckets, and disconnect.

        Each bucket is one two-phase range move: prepare and the bucket
        drop run under the exclusive topology lock, the copy after it,
        and the victim deletes only once its successor holds the copy,
        so a crash mid-drain duplicates at worst.  A failed copy aborts
        the victim's transfer tokens and raises, with the bucket already
        dropped and its forwarding entry kept; calling again finishes
        those pending moves before the remaining buckets.  Returns the
        number of records moved.  The server process itself is left
        running (ownerless) — stopping it is the caller's job,
        mirroring instance termination.

        Raises
        ------
        ValueError
            If the address is unknown or it is the last server.
        """
        if address not in self.clients:
            raise ValueError(f"server {address} not in the cluster")
        if len(self.clients) == 1:
            raise ValueError("cannot remove the last server")
        victim = self.clients[address]
        pending = [e for e in self._forwards.entries if e[2] is victim]
        positions = list(self.ring.buckets_of(address))
        moved = self._finish_pending(pending)
        for bucket in positions:
            with self._topo.exclusive():
                segments = self.ring.interval_segments(bucket)
                move = prepare_move(victim, segments)
                # From here writes route to the ring successor, so
                # nothing new can land on the victim.
                self.ring.remove_bucket(bucket)
                dest = self.clients[self.ring.node_for_hkey(bucket)]
                fwd = self._forwards.add(
                    (lo, hi, victim) for lo, hi in segments)
            moved += self._finish(move, dest, fwd)
        del self.clients[address]
        if self.replica is not None:
            # Contraction merged the victim's intervals into their ring
            # successors — rebuild the absorbing buckets' replicas (the
            # victim, already out of ``clients``, is skipped; its copies
            # die with the instance).
            self.replica.rebuild_touching(
                positions + [hi for _, hi, _ in pending])
        victim.close()
        return moved

    # ------------------------------------------------------------ failover

    def _canonical(self, address: tuple[str, int]) -> tuple[str, int]:
        """The stored key equal to ``address`` (ring uses identity)."""
        for known in self.clients:
            if known == tuple(address):
                return known
        raise ValueError(f"server {address} not in the cluster")

    def fail_server(self, address: tuple[str, int],
                    forward: bool = False) -> list[int]:
        """Ring repair after a node *death* (no data to migrate).

        The failure-time analogue of Algorithm 2's migration: each of the
        dead server's buckets is re-assigned to its ring successor owner
        (:meth:`~repro.core.ring.ConsistentHashRing.successor_owner` —
        the buddy replication mirrors the bucket on), and — because the
        records died with the process — nothing is copied.  Misses on
        the reassigned intervals then recompute and repopulate on the
        survivors.  Returns the repaired bucket positions, which
        :meth:`restore_server` can later hand back.

        ``forward=True`` covers the *partition* flavour of failure: the
        process is (believed) alive but unreachable-enough that the
        cluster routes around it.  Its connection is kept as a
        forwarding source, so reads that miss on the interim owner still
        try the isolated server — if the partition heals mid-outage, no
        acked write is reported lost.  With the default ``forward=False``
        (a real crash) the connection is closed and misses simply
        recompute.

        With replication enabled the range map is handed to the replica
        layer **first**: every segment a live buddy holds a copy of is
        claimed as a replica read source (and hint target for outage
        writes), and only what no replica covers is truly written off.
        The interim owner's primary namespace starts empty for the range
        either way; the data survives in the buddy's separately-accounted
        replica namespace.

        Raises
        ------
        ValueError
            If the address is unknown or no other server is left.
        """
        with self._topo.exclusive():
            address = self._canonical(address)
            owned = list(self.ring.buckets_of(address))
            reassignments = [(b, self.ring.successor_owner(b))
                             for b in owned]
            if any(heir is None for _, heir in reassignments):
                raise ValueError(
                    "no live server left to absorb the dead buckets")
            seg_map = {b: self.ring.interval_segments(b) for b in owned}
            segments = [seg for segs in seg_map.values() for seg in segs]
            if self.replica is not None:
                # Hand the dead node's ranges to the replica layer
                # before anything is discarded: claimed segments stay
                # readable (and writable, via hints) on their buddies.
                self.replica.claim_failed(address, seg_map)
            for bucket, successor in reassignments:
                self.ring.reassign_bucket(bucket, successor)
            client = self.clients.pop(address)
            if forward:
                self._forward_clients[address] = client
                self._forwards.add((lo, hi, client) for lo, hi in segments)
            else:
                try:
                    client.close()
                except OSError:  # pragma: no cover - already dead
                    pass
            self._failed[address] = owned
            return owned

    def restore_server(self, address: tuple[str, int]) -> int:
        """Re-admit a previously failed server (restarted, cold).

        The inverse of :meth:`fail_server`, and once more Algorithm 2 in
        spirit: each bucket the dead node used to own is one two-phase
        range move of the records recomputed onto the interim owner
        during the outage back home — copied *before* the interim owner
        deletes them, so a crash mid-restore cannot lose what the outage
        already paid to recompute.  A failed copy aborts the interim
        owner's tokens and raises with the forwarding entry kept;
        calling again finishes those pending moves and then the buckets
        not yet home.  Returns the number of records moved back.

        With replication enabled, three more steps follow the interim
        migration: the hinted-handoff queue on the range's buddy is
        drained home (conditionally — the interim copy is newer and
        wins), the replica claims are released, and an anti-entropy
        rebuild re-places the restored ranges' replicas under the
        current ring.  Ordering matters: claims are held until the
        drain lands, so a crash mid-restore leaves every pre-outage
        record still readable through the buddy.
        """
        address = tuple(address)  # type: ignore[assignment]
        if address not in self._failed:
            raise ValueError(f"server {address} was not failed over")
        client = self.clients.get(address)
        if client is None:
            # No bucket routes to the address yet, so admitting the
            # connection early is inert until the first reassign below.
            client = self.clients[address] = self._connect(address)
        fwd_client = self._forward_clients.get(address)
        moved = self._finish_pending(
            [e for e in self._forwards.entries
             if e[2] in self.clients.values()
             and self.ring.node_for_hkey(e[0]) == address])
        for bucket in self._failed[address]:
            if self.ring.node_map[bucket] == address:
                continue  # home since an earlier call
            with self._topo.exclusive():
                interim = self.clients[self.ring.node_map[bucket]]
                segments = self.ring.interval_segments(bucket)
                move = prepare_move(interim, segments)
                fresh = {key for key, _ in move.records}
                # A *partitioned* (rather than crashed) server comes
                # back still holding its pre-outage residents; a
                # crashed one restarts cold, so the sweep is empty.
                # Residents the outage already rewrote must lose to the
                # interim copy: delete them while still exclusive, so no
                # read can observe the stale value once traffic resumes
                # and the conditional copy below cannot be beaten to the
                # slot by a value older than the snapshot.
                try:
                    for lo, hi in segments:
                        for key, _ in client.sweep(lo, hi):
                            if key in fresh:
                                client.delete(key)
                except BaseException:
                    move.abort()
                    raise
                self.ring.reassign_bucket(bucket, address)
                if fwd_client is not None:
                    # Partition-mode forwarding for this interval is
                    # superseded by the interim entries registered next.
                    self._forwards.drop(
                        [e for e in self._forwards.entries
                         if e[2] is fwd_client
                         and any(not (e[1] < lo or hi < e[0])
                                 for lo, hi in segments)])
                fwd = self._forwards.add(
                    (lo, hi, interim) for lo, hi in segments)
            moved += self._finish(move, client, fwd)
        if self.replica is not None:
            # Drain the hinted-handoff queue home.  Conditional behind
            # the interim migration above: a hint never clobbers the
            # newer value an outage write produced.  Only then drop the
            # claims — if the drain dies, reads keep reaching the
            # buddy's copies and a retried restore re-drains.
            moved += len(self.replica.drain(address, client))
            self.replica.release(address)
        restored = self._failed.pop(address)
        self._forward_clients.pop(address, None)
        if self.replica is not None:
            # Anti-entropy: the restored buckets' replicas moved with
            # the ring (and stray hint copies may linger); re-place
            # them under the current layout.
            self.replica.rebuild_touching(restored)
        if fwd_client is not None:
            fwd_client.close()
        return moved

    @property
    def failed_servers(self) -> list[tuple[str, int]]:
        """Addresses currently failed over (awaiting restore)."""
        return list(self._failed)

    def replica_read(self, key: int,
                     deadline_ms: float | None = None) -> bytes | None:
        """Degraded-path consult: the buddy's replica copy of ``key``,
        or ``None`` (no replication, no buddy, no copy, or the buddy
        itself unreachable — errors are swallowed; the caller's
        fallback is a recompute, which is always safe).  On a hit the
        value is read-repaired to the routed owner (conditionally — a
        concurrent newer write must win)."""
        if self.replica is None:
            return None
        with self._topo.shared:
            hkey, bucket = self._locate(key)
            value = self.replica.degraded_read(key, hkey, bucket,
                                               deadline_ms=deadline_ms)
            if value is not None:
                try:
                    self.clients[self.ring.node_map[bucket]].put(
                        key, value, deadline_ms=deadline_ms, if_absent=True)
                except (ProtocolError, OSError):
                    pass  # owner still down: the next consult serves it
            return value

    def cluster_stats(self) -> dict:
        """Aggregated per-server stats keyed by ``host:port``."""
        return {
            f"{addr[0]}:{addr[1]}": client.stats()
            for addr, client in list(self.clients.items())
        }
