"""Wire protocol for the live cache cluster (wire v2).

Every frame is one fixed 23-byte big-endian header, then ``size`` body
bytes::

    version u8 | code u8 | flags u8 | key u64 | size u32 | n u32 | ms u32

A v1 (JSON-header) frame starts with ``0x00`` and is refused at the
``version`` byte.  ``code`` is an op on requests (``0x10`` and up) and a
status on replies, so :func:`describe` reads a frame without knowing its
direction.  No data op touches a text codec; JSON is only the ``stats``
reply's body, and error text and transfer tokens ride as UTF-8 bodies.

Requests: ``GET``/``DELETE`` key · ``PUT`` key + value · ``MULTI_GET`` n
+ keys ``u64[n]`` · ``MULTI_PUT`` n + records · ``SWEEP`` and
``EXTRACT_PREPARE`` key=lo + :data:`RANGE` (hi, lease_ms; 0 = default
lease) · ``EXTRACT_COMMIT``/``EXTRACT_ABORT`` + token · ``PING`` ·
``STATS``.  Flags: :data:`REPLICA` targets the replica namespace (see
:mod:`repro.live.replica`), :data:`IF_ABSENT` leaves a present key
untouched (migration copies never clobber newer writes),
:data:`BACKGROUND` is shed first.  ``ms`` is the remaining budget from
arrival (0 = none); work that outlives it is answered ``DEADLINE``.

Replies: ``OK`` carries integers in the fixed fields — ``get`` sets
:data:`FOUND` with the value as body, ``put`` the freed bytes in ``n``
(or :data:`SKIPPED`), ``delete`` ``FOUND`` and ``n`` = freed,
``extract_commit`` ``FOUND`` (token known) and ``n`` = removed,
``extract_abort`` ``FOUND`` (released).  Refusals: ``ERROR`` (text),
``OVERLOADED`` (``ms`` = retry-after), ``DEADLINE``, ``OVERFLOW``
(``key`` = free bytes).

A batch is one frame packing ``n`` records: keys ``u64[n]``, lengths
``u32[n]`` (:data:`NONE32` = not found, so ``b""`` stays distinct), then
the values.  ``MULTI_GET`` is answered by ``RECORDS`` frames in request
order; ``MULTI_PUT`` by ``(key, freed)`` pairs for every key applied or
skipped (freed = ``NONE32``), on ``OK`` or — stopped part-way — on
``OVERFLOW``/``DEADLINE``: the listed keys were applied before the
reply, so a client resends only the rest.  Range ops answer ``OK
n=count`` (prepare's body is its token), then ``RECORDS`` chunks.
Senders cut batches at :data:`MAX_BATCH` records or :data:`CHUNK_BYTES`
of values (:func:`split_records`).

Limits are checked from the header before the body is read: ``n`` over
``MAX_BATCH``, batch values over :data:`MAX_BATCH_BYTES`, other bodies
over :data:`MAX_BODY_BYTES`.  The server answers those, and a packed
body that disagrees with its index, ``ERROR`` and closes the session;
bytes that are not a v2 frame are closed without a reply.

Two-phase extraction: ``extract_prepare`` snapshots a range under a
leased token and *retains* it; only ``extract_commit`` deletes
(``extract_abort`` or lease expiry releases it), so a crash mid-way
leaves duplicates, never loss.
"""

from __future__ import annotations

import functools
import socket
import struct
from typing import NamedTuple

VERSION = 0xC2
_HEADER = struct.Struct(">BBBQIII")
HEADER_BYTES = _HEADER.size
MAX_BODY_BYTES = 1 << 26
#: most records one multi_get/multi_put batch may carry.
MAX_BATCH = 1024
#: total value bytes one batch may carry (caps server-side buffering).
MAX_BATCH_BYTES = 1 << 27
#: the u32 that stands for "no value": a record not found, a put skipped.
NONE32 = 0xFFFFFFFF

# reply statuses
OK, RECORDS, ERROR, OVERLOADED, DEADLINE, OVERFLOW = range(6)
# request ops
(PING, STATS, GET, PUT, DELETE, MULTI_GET, MULTI_PUT, SWEEP,
 EXTRACT_PREPARE, EXTRACT_COMMIT, EXTRACT_ABORT) = range(0x10, 0x1B)
CODE_NAMES = dict(enumerate(("ok records error overloaded deadline_exceeded "
                              "overflow").split()))
CODE_NAMES.update(enumerate(("ping stats get put delete multi_get multi_put "
                             "sweep extract_prepare extract_commit "
                             "extract_abort").split(), start=PING))

REPLICA, IF_ABSENT, BACKGROUND, FOUND, SKIPPED = 0x01, 0x02, 0x04, 0x08, 0x10
FLAG_NAMES = {REPLICA: "replica", IF_ABSENT: "if_absent",
              BACKGROUND: "background", FOUND: "found", SKIPPED: "skipped"}
REQUEST_FLAGS = REPLICA | IF_ABSENT | BACKGROUND
#: range request body: ``hi``, then ``lease_ms``.
RANGE = struct.Struct(">QI")

#: batch codes → (index bytes per record, value bytes allowed).
_BATCH_LIMITS = {MULTI_GET: (8, 0), MULTI_PUT: (12, MAX_BATCH_BYTES),
                 RECORDS: (12, MAX_BATCH_BYTES)}
#: value bytes after which a sender starts the next batch frame: small
#: frames keep both ends' receive buffers (and peak memory) bounded,
#: while pipelining keeps the link busy.
CHUNK_BYTES = 1 << 16
#: bodies at or below this ride in the same ``sendall`` as their header;
#: larger ones are sent on their own instead of being copied.
_INLINE_BODY_BYTES = 1 << 17
#: flush threshold for coalesced multi-frame sends.
_COALESCE_BYTES = 1 << 18


class Frame(NamedTuple):
    """One decoded frame: the fixed header's fields plus the body."""

    code: int
    flags: int = 0
    key: int = 0
    n: int = 0
    ms: int = 0
    body: bytes = b""


def enable_nodelay(sock: socket.socket) -> None:
    """Disable Nagle (best effort): replies must not wait on ACKs."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):  # pragma: no cover - exotic stacks
        pass


class ProtocolError(RuntimeError):
    """Raised on malformed frames or transport failures."""


class FrameError(ProtocolError):
    """A v2 frame the receiver refuses (a limit, a malformed batch): the
    server answers ``ERROR``, then ends the untrustworthy session."""


class OverloadedError(ProtocolError):
    """The server shed this request (admission queue full);
    ``retry_after_ms`` is its backoff hint."""

    def __init__(self, message: str = "overloaded",
                 retry_after_ms: int = 0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class DeadlineError(ProtocolError):
    """The request's deadline expired before execution."""


class ServerError(ProtocolError):
    """A deterministic refusal (e.g. a bad range, unknown op) on a
    healthy connection: unlike a bare :class:`ProtocolError` (broken
    frame, dead transport), resending cannot succeed."""


class CapacityError(ServerError):
    """The ``OVERFLOW`` refusal: the write does not fit the namespace's
    free bytes.  The one refusal that growing the cluster cures."""


#: The typed refusals: complete answers on a healthy connection, raised
#: at once and never resent (the caller recomputes a derived result).
#: Any other failure leaves the stream out of step: the client drops the
#: connection and retries.
REFUSALS = (OverloadedError, DeadlineError, ServerError)


def error_from_reply(reply: Frame, default: str) -> ProtocolError:
    """Map a refusal reply onto the matching typed error; any other
    reply maps to a bare :class:`ProtocolError` (the stream is out of
    step)."""
    if reply.code == OVERLOADED:
        return OverloadedError("overloaded", reply.ms)
    if reply.code == DEADLINE:
        return DeadlineError("deadline_exceeded")
    if reply.code == OVERFLOW:
        return CapacityError("overflow")
    if reply.code == ERROR:
        return ServerError(reply.body.decode("utf-8", "replace") or default)
    return ProtocolError(f"{default}: unexpected reply {describe(reply)}")


def error_frame(message: str) -> Frame:
    return Frame(ERROR, body=message.encode("utf-8", "replace"))


def _head(frame: Frame) -> bytes:
    try:
        return _HEADER.pack(VERSION, frame.code, frame.flags, frame.key,
                            len(frame.body), frame.n, frame.ms)
    except struct.error as exc:
        raise ValueError(f"unencodable frame {frame[:5]}: {exc}") from None


def encode(frame: Frame) -> bytes:
    """The frame's wire bytes (header then body)."""
    return _head(frame) + frame.body


def _parse_head(buf) -> tuple[int, int, int, int, int, int]:
    """Unpack and check a header → ``(code, flags, key, size, n, ms)``."""
    version, code, flags, key, size, n, ms = _HEADER.unpack_from(buf)
    if version != VERSION:
        raise ProtocolError(f"not a v2 frame (first byte {version:#04x})")
    limits = _BATCH_LIMITS.get(code)
    if limits is None:
        limit = MAX_BODY_BYTES
    elif n > MAX_BATCH:
        raise FrameError(f"bad batch size {n} (max {MAX_BATCH})")
    else:
        limit = n * limits[0] + limits[1]
    if size > limit:
        raise FrameError(f"declared body of {size} B exceeds {limit} B")
    return code, flags, key, size, n, ms


def decode(raw: bytes) -> Frame:
    """Parse exactly one frame from ``raw`` (tests, :func:`describe`)."""
    code, flags, key, size, n, ms = _parse_head(raw.ljust(HEADER_BYTES))
    if len(raw) != HEADER_BYTES + size:
        raise ProtocolError(f"{len(raw)} B is not one frame of {size} B body")
    return Frame(code, flags, key, n, ms, bytes(raw[HEADER_BYTES:]))


@functools.lru_cache(maxsize=256)
def _index(n: int, ints: bool = True) -> struct.Struct:
    return struct.Struct(f">{n}Q{n}I" if ints else f">{n}Q")


def pack_keys(keys) -> bytes:
    """A ``MULTI_GET`` body: the keys as ``u64[n]``."""
    return _index(len(keys), False).pack(*keys)


def pack_pairs(keys, ints) -> bytes:
    """``u64[n]`` keys then ``u32[n]`` integers (a multi_put reply)."""
    return _index(len(keys)).pack(*keys, *ints)


def pack_records(records) -> bytes:
    """A batch body from ``(key, value-or-None)`` records."""
    keys = [key for key, _ in records]
    lengths = [NONE32 if value is None else len(value)
               for _, value in records]
    return b"".join([pack_pairs(keys, lengths),
                     *[value for _, value in records if value]])


def split_records(records: list, max_records: int = MAX_BATCH) -> list:
    """Cut records into batch-frame chunks of at most ``max_records``,
    starting a new one once values reach :data:`CHUNK_BYTES`."""
    chunks, start, size = [], 0, 0
    for i, (_, value) in enumerate(records):
        if i > start and (i - start == max_records or size >= CHUNK_BYTES):
            chunks.append(records[start:i])
            start, size = i, 0
        size += len(value) if value else 0
    if start < len(records):
        chunks.append(records[start:])
    return chunks


def unpack_keys(frame: Frame) -> tuple:
    index = _index(frame.n, False)
    if len(frame.body) != index.size:
        raise FrameError(f"{frame.n} keys need {index.size} B, "
                         f"body has {len(frame.body)} B")
    return index.unpack(frame.body)


def _unpack_index(frame: Frame, exact: bool = False) -> tuple[tuple, tuple]:
    n, index = frame.n, _index(frame.n)
    if len(frame.body) < index.size or exact and len(frame.body) > index.size:
        raise FrameError(f"{n} records need a {index.size} B index, "
                         f"body has {len(frame.body)} B")
    flat = index.unpack_from(frame.body)
    return flat[:n], flat[n:]


def unpack_pairs(frame: Frame) -> list[tuple[int, int]]:
    """``(key, u32)`` pairs of a multi_put reply."""
    return list(zip(*_unpack_index(frame, exact=True)))


def unpack_records(frame: Frame) -> list[tuple[int, bytes | None]]:
    """``(key, value-or-None)`` records of a packed batch body."""
    keys, lengths = _unpack_index(frame)
    body, off = frame.body, 12 * frame.n
    if off + sum(x for x in lengths if x != NONE32) != len(body):
        raise FrameError(f"packed lengths disagree with a body of "
                         f"{len(body)} B")
    records: list[tuple[int, bytes | None]] = []
    for key, length in zip(keys, lengths):
        if length == NONE32:
            records.append((key, None))
        else:
            records.append((key, body[off:off + length]))
            off += length
    return records


def describe(frame: "Frame | bytes") -> str:
    """One line saying what a frame (or its wire bytes) means.

    >>> describe(Frame(GET, REPLICA | BACKGROUND, key=7, ms=250))
    'get replica background key=7 ms=250'
    >>> describe(encode(Frame(RECORDS, n=2,
    ...                       body=pack_records([(7, b"abc"), (9, None)]))))
    'records n=2 [7: 3 B, 9: not found]'
    >>> describe(Frame(ERROR, body=b"unknown op 0x7f"))
    "error 'unknown op 0x7f'"
    """
    if not isinstance(frame, Frame):
        frame = decode(bytes(frame))
    parts = [CODE_NAMES.get(frame.code, f"code={frame.code:#04x}")]
    parts += [name for bit, name in FLAG_NAMES.items() if frame.flags & bit]
    unknown = frame.flags & ~sum(FLAG_NAMES)
    if unknown:
        parts.append(f"flags={unknown:#04x}")
    parts += [f"{name}={value}" for name, value in
              (("key", frame.key), ("n", frame.n), ("ms", frame.ms)) if value]
    if frame.code == RECORDS:
        shown = [f"{k}: " + ("not found" if v is None else f"{len(v)} B")
                 for k, v in unpack_records(frame)[:8]]
        parts.append("[" + ", ".join(shown)
                     + (", ...]" if frame.n > 8 else "]"))
    elif frame.code == ERROR:
        parts.append(repr(frame.body.decode("utf-8", "replace")))
    elif frame.body:
        parts.append(f"body={len(frame.body)} B")
    return " ".join(parts)


def send_frame(sock: socket.socket, frame: Frame) -> None:
    """Send one frame (see :func:`send_frames`)."""
    if len(frame.body) > _INLINE_BODY_BYTES:
        return send_frames(sock, [frame])
    sock.sendall(_head(frame) + frame.body)


def send_frames(sock: socket.socket, frames: list) -> None:
    """Send frames in as few ``sendall`` calls (segments, under
    ``TCP_NODELAY``) as possible; a large body goes out alone, uncopied."""
    buf = bytearray()
    for frame in frames:
        buf += _head(frame)
        if len(frame.body) > _INLINE_BODY_BYTES:
            sock.sendall(buf)
            sock.sendall(frame.body)
            buf = bytearray()
            continue
        buf += frame.body
        if len(buf) >= _COALESCE_BYTES:
            sock.sendall(buf)
            buf = bytearray()
    if buf:
        sock.sendall(buf)


def recv_frame(sock: socket.socket) -> Frame:
    """Receive one frame without reading past it; raises
    :class:`ProtocolError` on a truncated, non-v2 or over-limit frame,
    or a receive timeout."""
    return FrameReader(sock, over_read=0).recv_frame()


class FrameReader:
    """Buffered frame reader bound to one socket (its only reader).

    It over-reads, so back-to-back frames share a ``recv``, copies each
    body out once, and uses nothing of the socket but ``recv``.
    """

    __slots__ = ("_sock", "_buf", "_over_read")

    def __init__(self, sock: socket.socket, over_read: int = 1 << 16) -> None:
        #: ``over_read``: bytes asked of each ``recv`` (0 = exactly a frame)
        self._sock, self._buf, self._over_read = sock, bytearray(), over_read

    def _fill(self, n: int) -> None:
        buf = self._buf
        while len(buf) < n:
            try:
                chunk = self._sock.recv(max(self._over_read, n - len(buf)))
            except (socket.timeout, TimeoutError) as exc:
                raise ProtocolError(f"timed out mid-frame ({n - len(buf)} B "
                                    f"of {n} B outstanding)") from exc
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            buf += chunk

    def recv_frame(self) -> Frame:
        """Receive one frame; see :func:`recv_frame`."""
        buf = self._buf
        if len(buf) < HEADER_BYTES:
            self._fill(HEADER_BYTES)
        code, flags, key, size, n, ms = _parse_head(buf)
        end = HEADER_BYTES + size
        if len(buf) < end:
            self._fill(end)
        body = b""
        if size:
            with memoryview(buf) as view:
                body = bytes(view[HEADER_BYTES:end])
        del buf[:end]
        # tuple.__new__ skips NamedTuple's Python-level constructor
        return tuple.__new__(Frame, (code, flags, key, n, ms, body))
