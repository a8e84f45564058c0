"""Protocol fuzzing against ``LiveCacheServer`` (satellite of the fault
subsystem).

The server's contract for malformed input: answer ``ERROR`` when the
frame parses but the request is bad (and then close the session if the
frame's own declarations cannot be trusted: a limit, a packed body that
disagrees with its index), close the session cleanly when the bytes are
not a v2 frame or stop mid-frame — and in no case wedge the accept
loop.  Every scenario ends by proving a *fresh* client still gets
served.
"""

import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.live import protocol as p
from repro.live.client import LiveCacheClient
from repro.live.protocol import (HEADER_BYTES, MAX_BATCH, MAX_BODY_BYTES,
                                 Frame, ProtocolError, encode, recv_frame,
                                 send_frame)
from repro.live.server import LiveCacheServer

TIMEOUT = 2.0  # a wedged server surfaces as socket.timeout, not a hang


@pytest.fixture(scope="module")
def server():
    srv = LiveCacheServer(capacity_bytes=1 << 20).start()
    yield srv
    srv.stop()


def raw_connect(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=TIMEOUT)
    return sock


def assert_still_serving(server) -> None:
    """The accept loop survived: a fresh client round-trips."""
    with LiveCacheClient(server.address, timeout=TIMEOUT) as client:
        assert client.ping()
        client.put(999, b"alive")
        assert client.get(999) == b"alive"


def expect_closed(sock: socket.socket) -> None:
    """The server must end the session: EOF (or reset), not silence."""
    try:
        data = sock.recv(1)
    except ConnectionError:
        data = b""
    assert data == b"", f"server kept the session open, sent {data!r}"


def expect_error(sock: socket.socket, match: str = "") -> None:
    """An ``ERROR`` reply whose text contains ``match``."""
    reply = recv_frame(sock)
    assert reply.code == p.ERROR, p.describe(reply)
    assert match in reply.body.decode()


def expect_refused(sock: socket.socket, match: str = "") -> None:
    """A frame the server will not trust: error reply, then close."""
    expect_error(sock, match)
    expect_closed(sock)


def with_size(frame: Frame, size: int) -> bytes:
    """``frame``'s header with its ``size`` field overwritten."""
    head = bytearray(encode(frame)[:HEADER_BYTES])
    struct.pack_into(">I", head, 11, size)
    return bytes(head)


def send_v1(sock: socket.socket, header) -> None:
    """A frame as the JSON-header protocol (v1) framed it, then EOF."""
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    sock.sendall(struct.pack(">I", len(raw)) + raw)
    sock.shutdown(socket.SHUT_WR)


# ----------------------------------------------------- malformed framing


def test_truncated_header(server):
    with raw_connect(server) as sock:
        sock.sendall(encode(Frame(p.GET, key=1))[:10])  # 10 of 23 B
        sock.shutdown(socket.SHUT_WR)
        expect_closed(sock)
    assert_still_serving(server)


def test_oversized_declared_header(server):
    """A v1 header-length prefix (here declaring over 1 MiB) is not a v2
    frame at all: closed without a reply."""
    with raw_connect(server) as sock:
        sock.sendall(struct.pack(">I", (1 << 20) + 1) + bytes(HEADER_BYTES))
        expect_closed(sock)
    assert_still_serving(server)


def test_oversized_declared_body(server):
    """Refused from the header alone, before any body byte is read."""
    with raw_connect(server) as sock:
        sock.sendall(with_size(Frame(p.PUT, key=1), MAX_BODY_BYTES + 1))
        expect_refused(sock, "exceeds")
    assert_still_serving(server)


def test_negative_declared_body(server):
    """-5 as the u32 ``size`` field reads 4 GiB: over the limit."""
    with raw_connect(server) as sock:
        sock.sendall(with_size(Frame(p.PUT, key=1), (-5) & 0xFFFFFFFF))
        expect_refused(sock, "exceeds")
    assert_still_serving(server)


@pytest.mark.parametrize("declared", ["x", "12px", [3], {"n": 1}, None])
def test_non_numeric_declared_body(server, declared):
    """The v1 attack of a non-numeric ``"body"`` is, to v2, a frame that
    is not v2 at all: session closed, accept loop intact."""
    with raw_connect(server) as sock:
        send_v1(sock, {"op": "put", "key": 1, "body": declared})
        expect_closed(sock)
    assert_still_serving(server)


def test_non_numeric_body_raises_protocol_error_client_side():
    """``recv_frame`` must refuse a non-v2 frame with ProtocolError (not
    struct.error/ValueError) so callers treat it as a framing fault."""
    a, b = socket.socketpair()
    try:
        raw = json.dumps({"ok": True, "body": "not-a-number"}).encode()
        a.sendall(struct.pack(">I", len(raw)) + raw)
        b.settimeout(TIMEOUT)
        with pytest.raises(ProtocolError, match="not a v2 frame"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_invalid_header_json(server):
    with raw_connect(server) as sock:
        send_v1(sock, b"{not json at all")
        expect_closed(sock)
    assert_still_serving(server)


def test_non_object_header(server):
    with raw_connect(server) as sock:
        send_v1(sock, b"[1,2,3]")
        expect_closed(sock)
    assert_still_serving(server)


# ----------------------------------- parsable frames with bad requests


def test_missing_fields_answer_ok_false(server):
    """Ops missing their range or token: error reply, session stays up."""
    with raw_connect(server) as sock:
        for bad in (Frame(p.SWEEP), Frame(p.EXTRACT_PREPARE, body=b"abc"),
                    Frame(p.EXTRACT_COMMIT), Frame(p.EXTRACT_ABORT)):
            send_frame(sock, bad)
            expect_error(sock)
        # the same session still serves good requests afterwards
        send_frame(sock, Frame(p.PING))
        assert recv_frame(sock) == Frame(p.OK)
    assert_still_serving(server)


def test_unknown_op_answers_ok_false(server):
    """Bad op codes (statuses sent as requests included): error replies
    on a session that stays up."""
    with raw_connect(server) as sock:
        for code in (0x7F, 0xFF, p.OK, p.RECORDS):
            send_frame(sock, Frame(code, key=3, body=b"xyz"))
            expect_error(sock, "unknown op")
        send_frame(sock, Frame(p.PING))
        assert recv_frame(sock) == Frame(p.OK)
    assert_still_serving(server)


@pytest.mark.parametrize("flags", [p.FOUND, p.SKIPPED, 0x20, 0x80, 0xFF])
def test_unknown_flag_bits_answer_ok_false(server, flags):
    """Reply-only or undefined flag bits on a request are refused, and
    the request is not executed."""
    with raw_connect(server) as sock:
        send_frame(sock, Frame(p.PUT, flags, key=77, body=b"v"))
        expect_error(sock, "unknown flag bits")
        send_frame(sock, Frame(p.GET, key=77))
        assert recv_frame(sock) == Frame(p.OK)  # not found: never put
    assert_still_serving(server)


def test_abrupt_disconnect_mid_body(server):
    """Close after the header but before the promised body bytes."""
    with raw_connect(server) as sock:
        sock.sendall(encode(Frame(p.PUT, key=7, body=b"x" * 1000))[:-995])
    assert_still_serving(server)


# --------------------------------------------------- multi-op batch abuse


def test_multi_put_declared_n_exceeds_frames_sent(server):
    """The header declares 5 records but the body packs 2: the batch
    never half-applies — error reply, then the session ends."""
    body = p.pack_records([(1, b"one"), (2, b"two")])
    with raw_connect(server) as sock:
        send_frame(sock, Frame(p.MULTI_PUT, n=5, body=body))
        expect_refused(sock, "index")
    assert_still_serving(server)
    with LiveCacheClient(server.address, timeout=TIMEOUT) as client:
        assert client.get(1) is None
        assert client.get(2) is None


def test_multi_get_declared_n_exceeds_frames_sent(server):
    with raw_connect(server) as sock:
        send_frame(sock, Frame(p.MULTI_GET, n=3, body=p.pack_keys([1])))
        expect_refused(sock, "keys need")
    assert_still_serving(server)


@pytest.mark.parametrize("n", [MAX_BATCH + 1, 10 * MAX_BATCH])
def test_multi_op_n_over_max_batch(server, n):
    """An oversized ``n`` is refused from the header, before the body is
    read — error reply, then close (the stream can't be trusted)."""
    with raw_connect(server) as sock:
        sock.sendall(encode(Frame(p.MULTI_GET, n=n)))
        expect_refused(sock, "batch")
    assert_still_serving(server)


@pytest.mark.parametrize("n", [-1, "ten", None, [4]])
def test_multi_op_bad_n(server, n):
    """A v1 batch header with a bad ``n``: to v2 it is not a frame at
    all, so the session is closed without a reply."""
    with raw_connect(server) as sock:
        send_v1(sock, {"op": "multi_put", "n": n})
        expect_closed(sock)
    assert_still_serving(server)


def test_multi_op_empty_batch_is_legal(server):
    """``n = 0`` is a degenerate but well-formed batch: ok reply with no
    records, session stays usable."""
    with raw_connect(server) as sock:
        send_frame(sock, Frame(p.MULTI_PUT, n=0))
        assert recv_frame(sock) == Frame(p.OK)
        send_frame(sock, Frame(p.MULTI_GET, n=0))
        assert recv_frame(sock) == Frame(p.RECORDS)
        send_frame(sock, Frame(p.PING))
        assert recv_frame(sock) == Frame(p.OK)


def test_multi_put_truncated_mid_record_body(server):
    """EOF inside the packed body (3 of the promised value bytes)."""
    raw = encode(Frame(p.MULTI_PUT, n=2, body=p.pack_records(
        [(1, b"ok"), (2, b"x" * 1000)])))
    with raw_connect(server) as sock:
        sock.sendall(raw[:HEADER_BYTES + 24 + 2 + 3])
        sock.shutdown(socket.SHUT_WR)
        expect_closed(sock)
    assert_still_serving(server)


def test_multi_put_record_frame_missing_key(server):
    """A body too short to hold its records' keys poisons the batch:
    error reply, then the session is torn down with nothing applied."""
    with raw_connect(server) as sock:
        body = struct.pack(">Q", 41) + b"fine"  # record 2's key is missing
        send_frame(sock, Frame(p.MULTI_PUT, n=2, body=body))
        expect_refused(sock, "index")
    assert_still_serving(server)
    with LiveCacheClient(server.address, timeout=TIMEOUT) as client:
        assert client.get(41) is None


def test_multi_put_record_without_value(server):
    """A multi_put record marked not-found has nothing to store."""
    with raw_connect(server) as sock:
        body = p.pack_records([(43, b"fine"), (44, None)])
        send_frame(sock, Frame(p.MULTI_PUT, n=2, body=body))
        expect_refused(sock, "without a value")
    with LiveCacheClient(server.address, timeout=TIMEOUT) as client:
        assert client.get(43) is None


def test_packed_lengths_disagree_with_body(server):
    """Lengths promising more (or fewer) value bytes than the body
    holds: refused whole, nothing applied."""
    good = p.pack_records([(45, b"abc"), (46, b"defgh")])
    for body in (good[:-2], good + b"zz"):
        with raw_connect(server) as sock:
            send_frame(sock, Frame(p.MULTI_PUT, n=2, body=body))
            expect_refused(sock, "disagree")
    with LiveCacheClient(server.address, timeout=TIMEOUT) as client:
        assert client.multi_get([45, 46]) == {}


def test_multi_get_garbage_record_frame(server):
    """A packed body of garbage (here a UTF-16 BOM and text, no whole
    key) is a malformed batch — refused rather than half-read."""
    with raw_connect(server) as sock:
        send_frame(sock, Frame(p.MULTI_GET, n=2, body=b"\xff\xfe not json"))
        expect_refused(sock, "keys need")
    assert_still_serving(server)


# ------------------------------------------------------- random garbage


#: bytes behind a well-formed v2 header with arbitrary fields, so the
#: fuzz gets past the version byte that stops almost all random bytes.
v2_headed = st.builds(
    lambda frame, tail: encode(frame) + tail,
    st.builds(Frame, st.integers(0, 255), st.integers(0, 255),
              st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1),
              st.integers(0, 2**32 - 1), st.binary(max_size=64)),
    st.binary(max_size=64))


@given(garbage=st.binary(min_size=1, max_size=256) | v2_headed)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_garbage_never_wedges(server, garbage):
    """Arbitrary bytes, bare or behind a valid v2 header: the server
    either parses and answers (maybe with an error), or closes.  It
    never leaves the accept loop unable to serve the next client."""
    with raw_connect(server) as sock:
        try:
            sock.sendall(garbage)
            sock.shutdown(socket.SHUT_WR)  # EOF: pending reads terminate
        except OSError:
            pass  # server already slammed the door — that's a clean close
        try:
            while True:
                # if the bytes happened to parse, replies must be framed
                assert isinstance(recv_frame(sock), Frame)
        except (ProtocolError, ConnectionError, TimeoutError):
            pass  # clean close (or reset) is the expected outcome
    assert_still_serving(server)


def test_many_garbage_sessions_then_real_load(server):
    """A burst of abusive sessions followed by real traffic."""
    for i in range(20):
        with raw_connect(server) as sock:
            sock.sendall(struct.pack(">I", (i * 2654435761) % (1 << 24)))
            sock.shutdown(socket.SHUT_WR)
    with LiveCacheClient(server.address, timeout=TIMEOUT) as client:
        for key in range(50):
            client.put(key, f"v{key}".encode())
        for key in range(50):
            assert client.get(key) == f"v{key}".encode()
