"""The live cache server: a threaded TCP node holding one cache slice.

One server ≡ one of the paper's EC2 cache nodes: a capacity-bounded,
B+-tree-indexed in-memory store ("in our implementation, the cache server
is automatically fetched from a remote location on the startup of a new
Cloud instance" — here it is a Python object you start on a port).

Concurrency and overload
------------------------
A ``ThreadingTCPServer`` accepts many clients.  Each namespace is one
:class:`~repro.btree.store.NodeStore` — the class each simulated node
uses — under one lock: its ``dict`` point index serves get, put, delete
and the multi-ops (a batch takes the lock once), and its B+-tree over
the same keys, rebuilt by the first range op after a write, is the
ordered index the range ops sweep.  Range ops (sweep/extract family)
snapshot *under* the lock but stream the records onto the socket
*after* releasing it — a slow migration reader cannot stall the
user-facing ops on the node.  Connection threads are
cheap (they block on ``recv``), but *work* is not: every op (a batch
counts once) passes an :class:`AdmissionGate`
that bounds concurrent execution (``max_workers``) and the number of ops
allowed to wait for a slot (``max_queue``).  Beyond that the server
**sheds**: a fast ``OVERLOADED`` reply carrying a retry-after hint
instead of unbounded queueing — the elastic
answer to a demand burst is to grow the cluster, not to melt one node.
Background-priority traffic is shed first (at half queue depth), and a
request whose deadline expires while queued is answered ``DEADLINE``
rather than executed late.  Each connection also
carries a socket timeout, so a half-open or stalled peer cannot pin a
handler thread forever.

Migration safety: the ``extract_prepare``/``extract_commit``/
``extract_abort`` family (backed by a
:class:`~repro.live.migration.TransferLedger`) replaces destructive
extraction for cluster migrations — see :mod:`repro.live.migration`.

Replica namespace
-----------------
Every server additionally hosts a **replica namespace**: a second,
independently-accounted :class:`_Store` holding buddy copies of *other*
nodes' ranges (see :mod:`repro.live.replica`).  Any wire op carrying the
``REPLICA`` header flag is routed to it, so replication reuses
the entire batched wire path — puts, multi ops, sweeps, and the
two-phase extract family all work against either namespace.  Replica
capacity is ``capacity_bytes * replica_headroom`` and sits *outside*
primary capacity accounting: holding a buddy's copies can never cause a
node's own primaries to overflow.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Callable

from repro.btree.store import NodeStore
from repro.live.migration import TransferLedger
from repro.live.protocol import (
    BACKGROUND, DEADLINE, DELETE, EXTRACT_ABORT, EXTRACT_COMMIT,
    EXTRACT_PREPARE, FOUND, GET, IF_ABSENT, MULTI_GET, MULTI_PUT, NONE32, OK,
    OVERFLOW, OVERLOADED, PING, PUT, RANGE, RECORDS, REPLICA, REQUEST_FLAGS,
    SKIPPED, STATS, SWEEP, Frame, FrameError, FrameReader, ProtocolError,
    enable_nodelay, error_frame, pack_pairs, pack_records, send_frame,
    send_frames, split_records, unpack_keys, unpack_records)

#: every request op the server answers.
_OPS = frozenset((PING, STATS, GET, PUT, DELETE, MULTI_GET, MULTI_PUT,
                  SWEEP, EXTRACT_PREPARE, EXTRACT_COMMIT, EXTRACT_ABORT))


class AdmissionGate:
    """Bounded-concurrency admission control with load shedding.

    ``max_workers`` ops execute at once; at most ``max_queue`` more may
    wait for a slot.  Anything beyond that is shed immediately.  While
    the queue is in its upper half, background-priority ops are shed
    too — dropping a prefetch is cheaper than delaying a user query.

    The gate is deliberately separate from the store lock: it bounds
    *work in the building*, and the queue-depth/shed counters it keeps
    are the signals an autoscaler (or this repo's benchmarks) watches.
    """

    def __init__(self, max_workers: int = 16, max_queue: int = 64,
                 retry_after_ms: int = 50) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.retry_after_ms = retry_after_ms
        self._slots = threading.Semaphore(max_workers)
        self._lock = threading.Lock()
        self.active = 0
        self.waiting = 0
        self.peak_queue_depth = 0
        self.peak_active = 0
        self.shed_overload = 0
        self.shed_background = 0
        self.deadline_misses = 0

    def try_admit(self, *, priority: str = "user",
                  expires_at: float | None = None) -> str:
        """Try to win an execution slot, waiting in the bounded queue.

        Returns ``"admitted"``, ``"overloaded"`` (shed), or
        ``"deadline"`` (budget expired while queued).  An admitted
        caller **must** call :meth:`release`.
        """
        if self._slots.acquire(blocking=False):
            self._note_admitted()
            return "admitted"
        with self._lock:
            if self.waiting >= self.max_queue:
                self.shed_overload += 1
                return "overloaded"
            if priority == "background" and self.waiting * 2 >= self.max_queue:
                self.shed_background += 1
                return "overloaded"
            self.waiting += 1
            self.peak_queue_depth = max(self.peak_queue_depth, self.waiting)
        try:
            while True:
                timeout = None
                if expires_at is not None:
                    timeout = expires_at - time.monotonic()
                    if timeout <= 0:
                        with self._lock:
                            self.deadline_misses += 1
                        return "deadline"
                if self._slots.acquire(timeout=timeout):
                    self._note_admitted()
                    return "admitted"
        finally:
            with self._lock:
                self.waiting -= 1

    def _note_admitted(self) -> None:
        with self._lock:
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)

    def release(self) -> None:
        """Return an execution slot."""
        with self._lock:
            self.active -= 1
        self._slots.release()

    def snapshot(self) -> dict:
        """Counter snapshot for ``stats`` replies."""
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "max_queue": self.max_queue,
                "active": self.active,
                "queue_depth": self.waiting,
                "peak_queue_depth": self.peak_queue_depth,
                "peak_active": self.peak_active,
                "shed_overload": self.shed_overload,
                "shed_background": self.shed_background,
                "deadline_misses": self.deadline_misses,
            }


class _Store:
    """One namespace: a :class:`~repro.btree.store.NodeStore`, the lock
    that guards it, its :class:`~repro.live.migration.TransferLedger`,
    and the ``stats`` counters.

    Every point and batch op is one dict probe per key in the store's
    point index (a batch takes the lock once) and leaves the ordered
    index alone, only marking it stale on a new key or a delete;
    ``sweep`` and ``extract_prepare`` walk the store's ordered leaves
    exactly as Algorithm 2's sweep does, the first one after a write
    rebuilding the tree under the lock.  One lock over the store makes
    overflow an atomic node-wide decision.
    """

    def __init__(self, capacity_bytes: int, order: int,
                 lease_s: float) -> None:
        self.records = NodeStore(capacity_bytes, order)
        self.lock = threading.Lock()
        self.transfers = TransferLedger(lease_s=lease_s)
        self.hits = 0
        self.misses = 0
        #: acquisitions that found the lock held, reported as
        #: ``stripe_contention`` (the key benchmarks and metrics read).
        self.contended = 0
        # batch-shape counters of the multi-ops this namespace ran
        # (reported by the ``stats`` op)
        self.multi_ops = 0
        self.batched_keys = 0
        self.max_batch = 0

    def _acquire(self) -> None:
        if not self.lock.acquire(blocking=False):
            self.contended += 1
            self.lock.acquire()

    def _count_batch(self, n: int) -> None:
        """Count one multi-op of ``n`` keys (the caller holds the lock)."""
        self.multi_ops += 1
        self.batched_keys += n
        self.max_batch = max(self.max_batch, n)

    # ------------------------------------------------------- point ops

    def get(self, key: int) -> bytes | None:
        self._acquire()
        try:
            value = self.records.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value
        finally:
            self.lock.release()

    def put(self, key: int, value: bytes,
            if_absent: bool = False) -> tuple[bool, int, bool]:
        """Store one record.  Returns ``(stored, freed_or_free, skipped)``:
        on success ``freed`` is the bytes an overwrite released; on
        overflow ``free`` is the node's remaining capacity.  With
        ``if_absent`` an already-present key is left untouched and
        reported ``skipped`` — the conditional write migrations use so a
        stale snapshot copy can never clobber a newer concurrent put."""
        records = self.records
        self._acquire()
        try:
            if if_absent and key in records:
                return True, 0, True
            freed = records.put(key, value)
            if freed is None:
                old = records.get(key)
                return False, records.free_bytes + len(old or b""), False
            return True, freed, False
        finally:
            self.lock.release()

    def delete(self, key: int) -> int:
        """Delete ``key`` if cached; returns bytes freed."""
        self._acquire()
        try:
            return len(self.records.pop(key) or b"")
        finally:
            self.lock.release()

    # ------------------------------------------------------- batch ops

    def multi_get(self, keys: list[int]) -> list[bytes | None]:
        """Batched lookup under one lock acquisition: each key's value,
        or ``None``, in ``keys`` order (the reply's order)."""
        self._acquire()
        try:
            self._count_batch(len(keys))
            values = list(map(self.records.index.get, keys))
            found = len(values) - values.count(None)
            self.hits += found
            self.misses += len(values) - found
            return values
        finally:
            self.lock.release()

    def multi_put(self, records: list[tuple[int, bytes]],
                  expired: "Callable[[], bool] | None" = None,
                  if_absent: bool = False
                  ) -> tuple[list[int], dict[int, int], list[int], str | None]:
        """Batched store under one lock acquisition.

        Returns ``(stored_keys, freed_by_key, skipped_keys, error)``
        where ``error`` is ``None``, ``"overflow"`` or
        ``"deadline_exceeded"``.  Records already applied when an error
        aborts the batch stay applied (and are listed in
        ``stored_keys``) — the reply tells the client which suffix to
        retry.  With ``if_absent`` a key already present is left
        untouched and listed in ``skipped_keys`` instead (migration
        copies must never clobber a newer concurrent write).
        """
        stored: list[int] = []
        freed_by_key: dict[int, int] = {}
        skipped: list[int] = []
        if expired is not None and expired():
            return stored, freed_by_key, skipped, "deadline_exceeded"
        store = self.records
        self._acquire()
        try:
            self._count_batch(len(records))
            for key, value in records:
                if if_absent and key in store:
                    skipped.append(key)
                    continue
                freed = store.put(key, value)
                if freed is None:
                    return stored, freed_by_key, skipped, "overflow"
                stored.append(key)
                if freed:
                    freed_by_key[key] = freed
        finally:
            self.lock.release()
        return stored, freed_by_key, skipped, None

    def delete_keys(self, keys: list[int]) -> int:
        """Batched delete (extract commits); returns records removed."""
        self._acquire()
        try:
            return sum(1 for key in keys if self.records.pop(key) is not None)
        finally:
            self.lock.release()

    # ------------------------------------------------------- range ops

    def snapshot_range(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """Every record in ``[lo, hi]``, key-sorted: a leaf sweep of the
        ordered index under the lock.  The caller streams the snapshot
        *outside* the lock, so a slow reader never stalls other ops."""
        self._acquire()
        try:
            return self.records.sweep(lo, hi)
        finally:
            self.lock.release()

    def counters_snapshot(self) -> dict:
        """Stats counters, read together under the lock."""
        with self.lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stripe_contention": self.contended,
                "records": len(self.records),
                "used_bytes": self.records.used_bytes,
                "multi_ops": self.multi_ops,
                "batched_keys": self.batched_keys,
                "max_batch": self.max_batch,
            }


class _Handler(socketserver.BaseRequestHandler):
    """One connection; serves frames until the peer disconnects."""

    def setup(self) -> None:  # noqa: D102 - socketserver hook
        server = self.server
        server.connections.add(self.request)  # type: ignore[attr-defined]
        enable_nodelay(self.request)
        # Buffered reads: all frames for this session come through one
        # reader, so back-to-back requests cost one recv between them.
        self.reader = FrameReader(self.request)
        # A stalled or half-open peer surfaces as a timeout inside
        # recv_frame (→ ProtocolError → session end) instead of pinning
        # this thread forever.
        if server.idle_timeout_s is not None:  # type: ignore[attr-defined]
            self.request.settimeout(server.idle_timeout_s)  # type: ignore[attr-defined]

    def finish(self) -> None:  # noqa: D102 - socketserver hook
        self.server.connections.discard(self.request)  # type: ignore[attr-defined]

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        store: _Store = self.server.store  # type: ignore[attr-defined]
        gate: AdmissionGate = self.server.gate  # type: ignore[attr-defined]
        while True:
            try:
                frame = self.reader.recv_frame()
                self._admit_and_dispatch(store, gate, frame,
                                         time.monotonic())
            except FrameError as exc:
                # A v2 header or batch we refuse: say why, then end the
                # session — the rest of the stream cannot be trusted.
                send_frame(self.request, error_frame(str(exc)))
                return
            except ProtocolError:
                return  # disconnect, garbage, or idle timeout ends the session
            except Exception as exc:  # report, keep serving
                send_frame(self.request, error_frame(str(exc)))

    # --------------------------------------------------------- admission

    def _admit_and_dispatch(self, store: _Store, gate: AdmissionGate,
                            frame: Frame, arrival: float) -> None:
        op = frame.code
        if op not in _OPS:
            send_frame(self.request, error_frame(f"unknown op {op:#04x}"))
            return
        if frame.flags & ~REQUEST_FLAGS:
            send_frame(self.request, error_frame(
                f"unknown flag bits {frame.flags & ~REQUEST_FLAGS:#04x}"))
            return
        if op in (PING, STATS):
            # Diagnostics bypass admission: health probes must keep
            # answering while the node sheds real work (overloaded is
            # not dead — the breaker and the detector treat them
            # differently).
            self._dispatch(store, frame, expires_at=None)
            return
        batch = None
        if op == MULTI_GET or op == MULTI_PUT:
            # Unpack (and so validate) the batch *before* admission: a
            # malformed one is refused whatever the load.
            batch = self._unpack_batch(frame)
        expires_at = arrival + frame.ms / 1000.0 if frame.ms else None
        priority = "background" if frame.flags & BACKGROUND else "user"
        verdict = gate.try_admit(priority=priority, expires_at=expires_at)
        if verdict == "overloaded":
            send_frame(self.request, Frame(OVERLOADED,
                                           ms=gate.retry_after_ms))
            return
        if verdict == "deadline":
            send_frame(self.request, Frame(DEADLINE))
            return
        try:
            delay = self.server.op_delay_s  # type: ignore[attr-defined]
            if delay:  # synthetic service time for overload benches
                time.sleep(delay)
            self._dispatch(store, frame, expires_at=expires_at,
                           batch=batch)
        finally:
            gate.release()

    def _unpack_batch(self, frame: Frame) -> list:
        """A multi-op's keys or ``(key, value)`` records.

        Its size limits were checked from the header before the body was
        read; a body that disagrees with its own index raises
        :class:`FrameError` (error reply, then the session ends).
        """
        if frame.code == MULTI_GET:
            return list(unpack_keys(frame))
        batch = unpack_records(frame)
        if any(value is None for _, value in batch):
            raise FrameError("multi_put record without a value")
        return batch

    @staticmethod
    def _expired(expires_at: float | None) -> bool:
        """Deadline check at the store-lock boundary: work the caller
        has given up on is dropped *before* it holds up the lock."""
        return expires_at is not None and time.monotonic() >= expires_at

    # ---------------------------------------------------------- dispatch

    def _send_records(self, head: list, records: list) -> None:
        """``head`` frames, then ``records`` as ``RECORDS`` chunks (see
        :func:`~repro.live.protocol.split_records`) — one coalesced
        write for a typical batch.  Without ``head`` (a ``multi_get``
        reply) at least one chunk goes out, even for no records."""
        frames = head + [Frame(RECORDS, n=len(chunk),
                               body=pack_records(chunk))
                         for chunk in split_records(records)]
        send_frames(self.request, frames or [Frame(RECORDS)])

    def _dispatch(self, store: _Store, frame: Frame,
                  expires_at: float | None, batch: list | None = None) -> None:
        op, key, body = frame.code, frame.key, frame.body
        sock = self.request
        if frame.flags & REPLICA:
            # Replica-flagged frames operate on the buddy-copy namespace:
            # same ops, separate trees, separate capacity accounting.
            store = self.server.replica_store  # type: ignore[attr-defined]
        if self._expired(expires_at):
            send_frame(sock, Frame(DEADLINE))
            return
        if op == GET:
            value = store.get(key)
            send_frame(sock, Frame(OK) if value is None
                       else Frame(OK, FOUND, body=value))
        elif op == PUT:
            stored, n, skipped = store.put(
                key, body, if_absent=bool(frame.flags & IF_ABSENT))
            if not stored:
                send_frame(sock, Frame(OVERFLOW, key=max(n, 0)))
            else:
                send_frame(sock, Frame(OK, SKIPPED if skipped else 0, n=n))
        elif op == DELETE:
            freed = store.delete(key)
            send_frame(sock, Frame(OK, FOUND if freed else 0, n=freed))
        elif op == MULTI_GET:
            self._send_records([], list(zip(batch, store.multi_get(batch))))
        elif op == MULTI_PUT:
            stored, freed_by_key, skipped, error = store.multi_put(
                batch, expired=lambda: self._expired(expires_at),
                if_absent=bool(frame.flags & IF_ABSENT))
            # Every key applied (or skipped) is listed, so a batch that
            # stopped part-way tells the client which suffix to retry.
            keys = stored + skipped
            freed = [freed_by_key.get(k, 0) for k in stored]
            code = (OK if error is None
                    else OVERFLOW if error == "overflow" else DEADLINE)
            send_frame(sock, Frame(code, n=len(keys), body=pack_pairs(
                keys, freed + [NONE32] * len(skipped))))
        elif op == SWEEP or op == EXTRACT_PREPARE:
            if len(body) != RANGE.size:
                raise ValueError(f"{len(body)} B range body, "
                                 f"want {RANGE.size} B")
            hi, lease_ms = RANGE.unpack(body)
            # Snapshot under the store lock, stream after release — a
            # slow reader must not stall the node.
            records = store.snapshot_range(key, hi)
            token = b""
            if op == EXTRACT_PREPARE:
                token = store.transfers.prepare(
                    key, hi, records,
                    lease_s=lease_ms / 1000.0 if lease_ms else None).encode()
            self._send_records([Frame(OK, n=len(records), body=token)],
                               records)
        elif op == EXTRACT_COMMIT or op == EXTRACT_ABORT:
            if not body:
                raise ValueError("missing transfer token")
            token = body.decode("utf-8", "replace")
            if op == EXTRACT_ABORT:
                released = store.transfers.abort(token)
                send_frame(sock, Frame(OK, FOUND if released else 0))
                return
            transfer = store.transfers.commit(token)
            removed = 0
            if transfer is not None:
                removed = store.delete_keys(transfer.keys)
            send_frame(sock, Frame(OK, FOUND if transfer else 0, n=removed))
        elif op == STATS:
            gate: AdmissionGate = self.server.gate  # type: ignore[attr-defined]
            reply = {
                "capacity_bytes": store.records.capacity_bytes,
                "transfers_pending": store.transfers.pending,
                "transfers_committed": store.transfers.committed,
                "transfers_expired": store.transfers.expired,
            }
            reply.update(store.counters_snapshot())
            reply.update(gate.snapshot())
            replica: _Store = self.server.replica_store  # type: ignore[attr-defined]
            counters = replica.counters_snapshot()
            reply["replica"] = {
                "capacity_bytes": replica.records.capacity_bytes,
                "records": counters["records"],
                "used_bytes": counters["used_bytes"],
                "hits": counters["hits"],
                "misses": counters["misses"],
            }
            send_frame(sock, Frame(OK, body=json.dumps(reply).encode()))
        else:  # PING
            send_frame(sock, Frame(OK))


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: live client sockets, force-closed on shutdown so a stopped
        #: server actually severs its sessions (clients then reconnect).
        self.connections: set = set()

    def handle_error(self, request, client_address) -> None:
        """Quietly drop connection-level errors (resets, severed
        sessions at shutdown); anything else keeps the default dump."""
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, OSError)):
            return
        super().handle_error(request, client_address)


class LiveCacheServer:
    """A runnable cache node.

    Parameters
    ----------
    capacity_bytes, order:
        Store size and B+-tree fan-out.
    max_workers, max_queue:
        Admission gate: concurrent ops and bounded wait queue (see
        :class:`AdmissionGate`).  The defaults are generous enough that
        single-client tests never queue.
    idle_timeout_s:
        Per-connection socket timeout; a peer silent for longer has its
        session closed (handler thread freed).  ``None`` disables.
    lease_s:
        Default ``extract_prepare`` snapshot lease.
    op_delay_s:
        Synthetic per-op service time (slept while *holding* a worker
        slot, outside the store lock).  Zero in production; the overload
        benchmark uses it to make saturation reproducible.
    replica_headroom:
        Sizes the replica namespace as a fraction of ``capacity_bytes``.
        Buddy copies are accounted there, never against primary
        capacity; ``1.0`` means the node can mirror a peer of its own
        size.

    Examples
    --------
    >>> server = LiveCacheServer(capacity_bytes=1 << 20).start()
    >>> server.address[0]
    '127.0.0.1'
    >>> server.stop()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 capacity_bytes: int = 1 << 28, order: int = 64,
                 max_workers: int = 16, max_queue: int = 64,
                 idle_timeout_s: float | None = 60.0,
                 lease_s: float = 30.0,
                 op_delay_s: float = 0.0,
                 replica_headroom: float = 1.0) -> None:
        self.store = _Store(capacity_bytes, order, lease_s=lease_s)
        self.replica_store = _Store(
            max(1, int(capacity_bytes * replica_headroom)), order,
            lease_s=lease_s)
        self.gate = AdmissionGate(max_workers=max_workers,
                                  max_queue=max_queue)
        self._server = _TCPServer((host, port), _Handler)
        self._server.store = self.store  # type: ignore[attr-defined]
        self._server.replica_store = self.replica_store  # type: ignore[attr-defined]
        self._server.gate = self.gate  # type: ignore[attr-defined]
        self._server.idle_timeout_s = idle_timeout_s  # type: ignore[attr-defined]
        self._server.op_delay_s = op_delay_s  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved after construction)."""
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> "LiveCacheServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name=f"cache-server-{self.address[1]}",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down, sever live sessions, and join the serving thread."""
        if self._thread is not None:
            # A shut-down listener wakes ``serve_forever``'s select at
            # once (the failed accept is skipped), not at its 0.5 s
            # poll.  Without a serving thread shutdown() never returns.
            try:
                self._server.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # no wake-up on this platform: the poll ends it
            self._server.shutdown()
        for conn in list(self._server.connections):
            try:
                conn.shutdown(2)  # SHUT_RDWR: unblocks handler recv()
            except OSError:
                pass
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "LiveCacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
