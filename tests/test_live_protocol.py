"""Property tests for the wire protocol framing and the packed codec."""

import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import protocol as p
from repro.live.protocol import (HEADER_BYTES, MAX_BATCH, MAX_BATCH_BYTES,
                                 MAX_BODY_BYTES, Frame, FrameError,
                                 FrameReader, ProtocolError, decode, encode,
                                 recv_frame, send_frame, send_frames)

U32 = st.integers(0, 2**32 - 1)
KEYS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
FLAGS = st.integers(0, 0x1F)  # every combination of the five flag bits
#: an empty value must survive as b"", distinct from not-found (None)
VALUES = st.one_of(st.just(b""), st.binary(max_size=64))
NON_BATCH = [c for c in p.CODE_NAMES
             if c not in (p.MULTI_GET, p.MULTI_PUT, p.RECORDS)]

frame_st = st.builds(Frame, st.sampled_from(NON_BATCH), FLAGS, KEYS, U32,
                     U32, st.binary(max_size=4096))


def wire(frames: list) -> list:
    """Frames through a real socket pair and a buffered reader."""
    a, b = socket.socketpair()
    try:
        send_frames(a, frames)
        reader = FrameReader(b)
        return [reader.recv_frame() for _ in frames]
    finally:
        a.close()
        b.close()


@given(frame_st)
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip(frame):
    assert decode(encode(frame)) == frame
    a, b = socket.socketpair()
    try:
        send_frame(a, frame)
        assert recv_frame(b) == frame
    finally:
        a.close()
        b.close()


@given(st.lists(frame_st, min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_back_to_back_frames(frames):
    assert wire(frames) == frames


@st.composite
def batches(draw):
    """0, 1 or MAX_BATCH records (the bounds), or a few in between."""
    size = draw(st.sampled_from([0, 1, MAX_BATCH]) | st.integers(2, 8))
    if size == MAX_BATCH:  # cheap to draw: a pattern from one seed
        seed = draw(st.integers(0, 2**32))
        return [(2**64 - 1 - i if i % 2 else i + seed,
                 None if i % 7 == 3 else bytes([i % 256]) * (i % 5))
                for i in range(size)]
    keys = draw(st.lists(KEYS, min_size=size, max_size=size))
    vals = draw(st.lists(st.none() | VALUES, min_size=size, max_size=size))
    return list(zip(keys, vals))


def request_shapes():
    """Every data-op request, as the client builds it."""
    flags, key, ms = FLAGS, KEYS, U32
    return st.one_of(
        st.builds(lambda c, f, k, m: Frame(c, f, k, ms=m),
                  st.sampled_from([p.GET, p.DELETE, p.PING, p.STATS]),
                  flags, key, ms),
        st.builds(lambda f, k, m, v: Frame(p.PUT, f, k, ms=m, body=v),
                  flags, key, ms, VALUES),
        st.builds(lambda f, m, b: Frame(p.MULTI_GET, f, n=len(b), ms=m,
                                        body=p.pack_keys([k for k, _ in b])),
                  flags, ms, batches()),
        st.builds(lambda f, m, b: Frame(
            p.MULTI_PUT, f, n=len(b), ms=m,
            body=p.pack_records([(k, v or b"") for k, v in b])),
            flags, ms, batches()),
        st.builds(lambda c, f, lo, hi, lease: Frame(
            c, f, lo, body=p.RANGE.pack(hi, lease)),
            st.sampled_from([p.SWEEP, p.EXTRACT_PREPARE]), flags, key, key,
            U32),
        st.builds(lambda c, f, t: Frame(c, f, body=t.encode()),
                  st.sampled_from([p.EXTRACT_COMMIT, p.EXTRACT_ABORT]),
                  flags, st.text(min_size=1, max_size=20)),
    )


def reply_shapes():
    """Every reply: fixed-field integers, records, pairs, refusals."""
    return st.one_of(
        st.builds(lambda f, k, n, v: Frame(p.OK, f, k, n, body=v),
                  st.sampled_from([0, p.FOUND, p.SKIPPED]), KEYS, U32,
                  VALUES),
        st.builds(lambda b: Frame(p.RECORDS, n=len(b),
                                  body=p.pack_records(b)), batches()),
        st.builds(lambda c, b: Frame(c, n=len(b), body=p.pack_pairs(
            [k for k, _ in b],
            [p.NONE32 if v is None else len(v) for k, v in b])),
            st.sampled_from([p.OK, p.OVERFLOW, p.DEADLINE]), batches()),
        st.builds(lambda ms: Frame(p.OVERLOADED, ms=ms), U32),
        st.builds(lambda k: Frame(p.OVERFLOW, key=k), KEYS),
        st.builds(lambda t: Frame(p.ERROR, body=t.encode()), st.text()),
    )


def unpacked(frame: Frame):
    """What the receiving side makes of a frame's body."""
    if frame.code == p.MULTI_GET:
        return p.unpack_keys(frame)
    if frame.code in (p.MULTI_PUT, p.RECORDS):
        return p.unpack_records(frame)
    if frame.code in (p.SWEEP, p.EXTRACT_PREPARE):
        return p.RANGE.unpack(frame.body)
    return frame.body


@given(st.lists(request_shapes() | reply_shapes(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_every_shape_roundtrips(frames):
    got = wire(frames)
    assert got == frames
    for sent, received in zip(frames, got):
        assert unpacked(received) == unpacked(sent)
        assert decode(encode(sent)) == sent
        assert p.describe(sent) == p.describe(encode(sent))


@given(batches())
@settings(max_examples=60, deadline=None)
def test_batch_codec_inverts(records):
    """Packing then unpacking is the identity: b"" stays b"", None
    stays None, and the pairs of a multi_put reply keep their order."""
    frame = Frame(p.RECORDS, n=len(records), body=p.pack_records(records))
    assert p.unpack_records(frame) == records
    keys = [k for k, _ in records]
    assert p.unpack_keys(Frame(p.MULTI_GET, n=len(keys),
                               body=p.pack_keys(keys))) == tuple(keys)
    ints = [p.NONE32 if v is None else len(v) for _, v in records]
    assert p.unpack_pairs(Frame(p.OK, n=len(keys), body=p.pack_pairs(
        keys, ints))) == list(zip(keys, ints))


def test_empty_value_is_not_not_found():
    body = p.pack_records([(1, b""), (2, None)])
    assert len(body) == 24  # the index only: neither carries value bytes
    assert p.unpack_records(Frame(p.RECORDS, n=2, body=body)) == [
        (1, b""), (2, None)]


def test_stats_body_is_json():
    frame = decode(encode(Frame(p.OK, body=json.dumps({"a": 1}).encode())))
    assert json.loads(frame.body) == {"a": 1}


def test_out_of_range_field_is_a_value_error():
    """A key that does not fit u64 fails before anything is sent."""
    with pytest.raises(ValueError):
        encode(Frame(p.GET, key=2**64))
    with pytest.raises(ValueError):
        encode(Frame(p.GET, key=-1))


class TestMalformedFrames:
    def _pair(self):
        return socket.socketpair()

    def _recv(self, raw: bytes, **match):
        a, b = self._pair()
        try:
            a.sendall(raw)
            a.close()
            with pytest.raises(ProtocolError, **match):
                recv_frame(b)
        finally:
            b.close()

    def test_truncated_header_rejected(self):
        self._recv(encode(Frame(p.GET, key=5))[:HEADER_BYTES - 3],
                   match="closed mid-frame")

    def test_truncated_body_rejected(self):
        self._recv(encode(Frame(p.PUT, key=5, body=b"x" * 100))[:-1],
                   match="closed mid-frame")

    def test_invalid_json_rejected(self):
        """A v1 frame (length prefix + JSON header) is not v2: refused
        at its first byte."""
        payload = b'{"op":"get","key":1}'
        self._recv(len(payload).to_bytes(4, "big") + payload
                   + bytes(HEADER_BYTES), match="not a v2 frame")

    def test_non_object_header_rejected(self):
        payload = b"[1, 2, 3]"
        self._recv(len(payload).to_bytes(4, "big") + payload
                   + bytes(HEADER_BYTES), match="not a v2 frame")

    def test_oversized_header_declaration_rejected(self):
        """A v1 header-length prefix declaring 2 MiB: not v2 either."""
        self._recv((1 << 21).to_bytes(4, "big") + bytes(HEADER_BYTES),
                   match="not a v2 frame")

    def test_oversized_body_declaration_rejected(self):
        head = bytearray(encode(Frame(p.PUT, key=1)))
        struct.pack_into(">I", head, 11, MAX_BODY_BYTES + 1)
        self._recv(bytes(head), match="exceeds")

    def test_negative_body_rejected(self):
        """-5 as the u32 ``size`` field is 4 GiB: over any limit."""
        head = bytearray(encode(Frame(p.PUT, key=1)))
        struct.pack_into(">i", head, 11, -5)
        with pytest.raises(FrameError, match="exceeds"):
            decode(bytes(head))

    def test_batch_limits_checked_from_the_header(self):
        with pytest.raises(FrameError, match="bad batch size"):
            decode(encode(Frame(p.MULTI_GET, n=MAX_BATCH + 1)))
        head = bytearray(encode(Frame(p.MULTI_PUT, n=1)))
        struct.pack_into(">I", head, 11, 12 + MAX_BATCH_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds"):
            decode(bytes(head))

    def test_packed_lengths_must_match_the_body(self):
        body = p.pack_records([(1, b"abc")])
        with pytest.raises(FrameError, match="disagree"):
            p.unpack_records(Frame(p.RECORDS, n=1, body=body + b"x"))
        with pytest.raises(FrameError, match="disagree"):
            p.unpack_records(Frame(p.RECORDS, n=1, body=body[:-1]))
        with pytest.raises(FrameError, match="index"):
            p.unpack_records(Frame(p.RECORDS, n=2, body=body))
        with pytest.raises(FrameError):
            p.unpack_keys(Frame(p.MULTI_GET, n=2, body=p.pack_keys([1])))
