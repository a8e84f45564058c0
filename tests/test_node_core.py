"""The node core answers exactly what the TCP server sends.

``repro.live.server._Node.handle(frame, arrival)`` is a cache node's
whole request → reply step, with no socket; the TCP handler only reads a
frame, calls it and writes the replies (an error reply for a refused
frame).  One scripted request sequence is driven both ways here —
through ``node.handle`` directly and over a real socket to a
``LiveCacheServer`` of the same configuration — and the encoded replies
must be byte-identical, frame by frame.  Extract tokens are
deterministic (``t{n}-{lo}-{hi}``), so they are compared too.
"""

import socket
import sys
import threading
import time

from repro.live import protocol as p
from repro.live.protocol import (Frame, FrameError, encode, error_frame,
                                 pack_keys, pack_records, send_frame)
from repro.live.server import LiveCacheServer, _Node

CONFIG = dict(capacity_bytes=4096, order=4, max_workers=1, max_queue=0,
              lease_s=30.0, op_delay_s=0.0, replica_headroom=0.5)
#: LiveCacheServer keywords for the same node.
SERVER = dict(CONFIG, idle_timeout_s=10.0)


def _range(lo: int, hi: int, lease_ms: int = 0) -> dict:
    return dict(key=lo, body=p.RANGE.pack(hi, lease_ms))


def namespace_script(ns: int) -> list:
    """Every op against one namespace (``ns`` is 0 or ``REPLICA``)."""
    v = bytes(range(100))
    return [
        Frame(p.PING, ns),
        Frame(p.PUT, ns, key=1, body=v),
        Frame(p.PUT, ns, key=1, body=v[:50]),             # overwrite frees 100
        Frame(p.PUT, ns | p.IF_ABSENT, key=1, body=v),    # skipped
        Frame(p.GET, ns, key=1),
        Frame(p.GET, ns, key=2),                          # miss
        Frame(p.MULTI_PUT, ns, n=3, body=pack_records(
            [(10, v), (11, v[:7]), (12, v[:1])])),
        Frame(p.MULTI_PUT, ns | p.IF_ABSENT, n=2, body=pack_records(
            [(10, b"stale"), (13, v[:3])])),              # 10 skipped
        Frame(p.MULTI_GET, ns, n=3, body=pack_keys([10, 11, 99])),
        Frame(p.MULTI_GET, ns, n=0),                      # one empty chunk
        Frame(p.SWEEP, ns, **_range(0, 100)),
        Frame(p.EXTRACT_PREPARE, ns, **_range(10, 12)),
        Frame(p.EXTRACT_COMMIT, ns, body=b"t1-10-12"),
        Frame(p.EXTRACT_COMMIT, ns, body=b"t1-10-12"),    # already consumed
        Frame(p.EXTRACT_PREPARE, ns, **_range(0, 5, lease_ms=5000)),
        Frame(p.EXTRACT_ABORT, ns, body=b"t2-0-5"),
        Frame(p.EXTRACT_ABORT, ns, body=b"t9-0-5"),       # unknown token
        Frame(p.DELETE, ns, key=1),
        Frame(p.DELETE, ns, key=1),                       # already gone
        Frame(p.PUT, ns, key=20, body=b"x" * 5000),       # overflow
        Frame(p.MULTI_PUT, ns, n=4, body=pack_records(    # stops part-way
            [(30 + i, b"y" * 1200) for i in range(4)])),
        Frame(p.STATS, ns),
        # refusals that keep the session
        Frame(0x7F, ns),                                  # unknown op
        Frame(p.GET, ns | 0x80, key=1),                   # unknown flag bits
        Frame(p.SWEEP, ns, key=0, body=b"xx"),            # bad range body
        Frame(p.EXTRACT_COMMIT, ns),                      # missing token
    ]


#: a malformed batch: its packed lengths promise more value bytes than
#: the body holds.  It is refused and ends the session, so it goes last.
MALFORMED = Frame(p.MULTI_PUT, n=2,
                  body=pack_records([(45, b"abc"), (46, b"defgh")])[:-2])

SCRIPT = namespace_script(0) + namespace_script(p.REPLICA)


def node_replies(node: _Node, frame: Frame) -> tuple[bytes, bool]:
    """``(encoded replies, session goes on)`` for one request, with the
    TCP handler's three outcomes for a raised exception."""
    try:
        replies = node.handle(frame, time.monotonic())
    except FrameError as exc:
        return encode(error_frame(str(exc))), False
    except Exception as exc:  # noqa: BLE001 - mirrors the handler
        replies = [error_frame(str(exc))]
    return b"".join(map(encode, replies)), True


def recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            break
        data += chunk
    return bytes(data)


def exchange(sock: socket.socket, node: _Node, frame: Frame) -> tuple:
    """Send ``frame`` to both nodes; the server's reply bytes must be
    the node's.  Returns ``(reply bytes, session goes on)``."""
    want, goes_on = node_replies(node, frame)
    send_frame(sock, frame)
    assert recv_exactly(sock, len(want)) == want, p.describe(frame)
    return want, goes_on


def test_node_step_and_tcp_server_reply_byte_identical():
    node = _Node(**CONFIG)
    server = LiveCacheServer(**SERVER).start()
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            # Hold the only worker slot on both nodes: with no queue,
            # the admission gate sheds the next op.
            for gate in (node.gate, server.gate):
                assert gate.try_admit() == "admitted"
            shed, _ = exchange(sock, node, Frame(p.GET, key=1))
            assert p.decode(shed) == Frame(p.OVERLOADED, ms=50)
            for gate in (node.gate, server.gate):
                gate.release()
            for frame in SCRIPT:
                assert exchange(sock, node, frame)[1]
            _, goes_on = exchange(sock, node, MALFORMED)
            assert not goes_on
            assert sock.recv(1) == b""  # the server ended the session
    finally:
        server.stop()


def test_script_reaches_every_reply_kind():
    """The script is only as good as what it exercises: every reply
    code, both extract tokens and each refusal's message appear."""
    node = _Node(**CONFIG)
    seen = []
    for frame in SCRIPT:
        try:
            seen += node.handle(frame, time.monotonic())
        except ValueError as exc:
            seen.append(error_frame(str(exc)))
    assert {p.OK, p.RECORDS, p.ERROR, p.OVERFLOW} <= {r.code for r in seen}
    assert any(r.flags & p.SKIPPED for r in seen)
    # a multi_put that stopped part-way: overflow after applying some
    assert sum(r.code == p.OVERFLOW and r.n > 0 for r in seen) == 2
    bodies = b"".join(r.body for r in seen)
    for text in (b"t1-10-12", b"t2-0-5", b"unknown op 0x7f",
                 b"unknown flag bits 0x80", b"range body",
                 b"missing transfer token", b'"replica"'):
        assert text in bodies, text
    raw, goes_on = node_replies(node, MALFORMED)
    assert not goes_on and b"disagree" in raw


def test_admission_gate_bounds_workers_under_contention():
    """The node's gate is one lock plus a condition for queued ops:
    under more threads than cores and a tiny switch interval, no more
    than ``max_workers`` ops ever run at once, every attempt is either
    admitted or shed (a lost wake-up would leave a queued op to miss
    its deadline), and the gate drains to idle with no thread stuck."""
    gate = _Node(**dict(CONFIG, max_workers=2, max_queue=3)).gate
    inside, peak, lock = [0], [0], threading.Lock()
    verdicts: list[str] = []

    def worker() -> None:
        for _ in range(300):
            verdict = gate.try_admit(expires_at=time.monotonic() + 5.0)
            if verdict == "admitted":
                with lock:
                    inside[0] += 1
                    peak[0] = max(peak[0], inside[0])
                time.sleep(0)
                with lock:
                    inside[0] -= 1
                gate.release()
            with lock:
                verdicts.append(verdict)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert peak[0] <= 2
    assert len(verdicts) == 8 * 300
    assert set(verdicts) == {"admitted", "overloaded"}
    assert verdicts.count("overloaded") == gate.shed_overload
    assert gate.active == 0 and gate.waiting == 0
    assert gate.peak_queue_depth <= 3
