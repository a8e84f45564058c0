"""The benchmark's spans stay on the paths they time.

``perfbench/layers.py`` wraps hot-path callables by name: ``install_sim``
the simulator's (``Coordinator.query``, the elastic cache's
``get``/``put``/``record_query``/``end_time_slice``, GBA's ``insert``,
the metrics hooks, ``Service.execute``, the ring lookup and the sliding
window), ``install_server`` a server child's (admission, the store's
point and batch ops, the server's ``send_frame``/``send_frames`` and
frame reads).  A rewrite that stops calling one of them through its
patched name — inlines it, renames it, or reaches it through a captured
bound method — silently zeroes that layer's per-layer metric.  Each test
here drives one stack under its installer and fails on such a zero.
"""

import socket
import struct
from pathlib import Path

from repro.experiments import harness
from repro.experiments.configs import fig5_params
from repro.live import protocol as p
from repro.live.server import LiveCacheServer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: B+-tree spans neither stack enters: every node store bulk-loads its
#: ordered index (``BPlusTree.from_sorted``) and sweeps its leaves, so
#: ``search``/``insert``/``delete`` read 0 in the simulator and on the
#: server alike.
NEVER_ENTERED = {"btree.search", "btree.insert", "btree.pop"}


def recording_tracer(monkeypatch):
    """A perfbench tracer that labels each span it installs with the
    attribute it wraps, so two patches sharing one span name (the
    server's ``send_frame`` and ``send_frames``) are told apart."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    class Recording(Tracer):
        def __init__(self) -> None:
            super().__init__()
            self.installed: set[str] = set()

        def patch(self, owner, attr, name, on_result=None, adapt=None):
            label = f"{name}/{attr}"
            self.installed.add(label)
            super().patch(owner, attr, label, on_result=on_result,
                          adapt=adapt)

        def never_entered(self) -> list[str]:
            entered = {name for name, *_ in self.spans()}
            return sorted(label for label in self.installed - entered
                          if label.split("/")[0] not in NEVER_ENTERED)

    return layers, Recording()


def test_a_mini_fig5_panel_enters_every_sim_span(monkeypatch):
    layers, tracer = recording_tracer(monkeypatch)
    layers.install_sim(tracer)
    try:
        params = fig5_params(100, "mini", seed=7)
        bundle = harness.build_elastic(params)
        harness.run_trace(bundle, harness.make_trace(params))
    finally:
        tracer.restore()

    assert "sim.coordinator.query/query" in tracer.installed
    assert tracer.never_entered() == []


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "server closed the session"
        data += chunk
    return data


def _reply(sock: socket.socket) -> p.Frame:
    """One reply frame, read without the (patched) ``FrameReader`` so
    only the server enters its spans."""
    head = _recv_exactly(sock, p.HEADER_BYTES)
    size = struct.unpack_from(">I", head, 11)[0]  # after version..key
    return p.decode(head + _recv_exactly(sock, size))


def _request(sock: socket.socket, frame: p.Frame) -> p.Frame:
    p.send_frame(sock, frame)
    return _reply(sock)


def test_served_ops_enter_every_server_span(monkeypatch):
    """Every point and batch op, each admitted, plus a range sweep (a
    multi-frame reply) against an in-process server."""
    layers, tracer = recording_tracer(monkeypatch)
    layers.install_server(tracer)
    server = LiveCacheServer(capacity_bytes=1 << 16).start()
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            assert _request(sock, p.Frame(p.PUT, key=1, body=b"v")).code == p.OK
            assert _request(sock, p.Frame(p.GET, key=1)).body == b"v"
            assert _request(sock, p.Frame(p.DELETE, key=1)).n == 1
            assert _request(sock, p.Frame(p.MULTI_PUT, n=2, body=p.pack_records(
                [(2, b"a"), (3, b"b")]))).n == 2
            assert _request(sock, p.Frame(p.MULTI_GET, n=2, body=p.pack_keys(
                [2, 3]))).n == 2
            sweep = p.Frame(p.SWEEP, key=0, body=p.RANGE.pack(10, 0))
            assert _request(sock, sweep).n == 2  # head, then the records
            assert _reply(sock).code == p.RECORDS
    finally:
        server.stop()
        tracer.restore()

    assert "server.admit/try_admit" in tracer.installed
    assert tracer.never_entered() == []
