"""A fault-wrapping TCP proxy for the live cache cluster.

:class:`FaultProxy` sits between clients and one real
:class:`~repro.live.server.LiveCacheServer` and misbehaves on command:
drop a fraction of frames, delay every frame, garble a fraction of
frames (flipping the header's version byte so the peer sees a framing
error), or partition the upstream entirely for a window.  Because clients connect
to the *proxy's* address, real servers can be "killed, slowed, and
partitioned" under test without touching server code — the live
analogue of the simulator's fault injector.

The relay is frame-aware (it speaks :mod:`repro.live.protocol`), so
faults land on protocol-meaningful boundaries: a dropped *request* frame
leaves the client waiting for a reply until its socket timeout fires,
exactly like a lost packet on a real network; a dropped *reply* does the
same with the request already applied (testing at-least-once semantics);
a garbled frame kills the session the way a corrupted stream would.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from repro.live.protocol import FrameReader, ProtocolError, encode, send_frame


class FaultProxy:
    """A controllable man-in-the-middle for one upstream server.

    Parameters
    ----------
    upstream:
        The real server's ``(host, port)``.
    host, port:
        Where the proxy listens (``port=0`` picks a free port).
    seed:
        Seed for the fault lottery, so chaos runs are reproducible.

    Examples
    --------
    >>> from repro.live.server import LiveCacheServer
    >>> from repro.live.client import LiveCacheClient
    >>> server = LiveCacheServer(capacity_bytes=1 << 20).start()
    >>> proxy = FaultProxy(server.address).start()
    >>> with LiveCacheClient(proxy.address) as c:
    ...     c.put(1, b"x")
    0
    >>> proxy.stop(); server.stop()
    """

    def __init__(self, upstream: tuple[str, int], host: str = "127.0.0.1",
                 port: int = 0, seed: int = 0) -> None:
        self.upstream = upstream
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._running = False
        self._accept_thread: threading.Thread | None = None
        self._sessions: set[tuple[socket.socket, socket.socket]] = set()
        # fault state (mutable at runtime via set_faults/partition/heal)
        self.drop_frac = 0.0
        self.delay_s = 0.0
        self.garble_frac = 0.0
        self.partitioned = False
        # observability counters for assertions in chaos tests
        self.forwarded = 0
        self.dropped = 0
        self.garbled = 0
        self.refused = 0

    # ----------------------------------------------------------- lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The proxy's listening ``(host, port)`` — give this to clients."""
        return self._listener.getsockname()

    def start(self) -> "FaultProxy":
        """Begin accepting; returns self for chaining."""
        if self._running:
            raise RuntimeError("proxy already started")
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"fault-proxy-{self.address[1]}",
            daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and sever every relayed session."""
        self._running = False
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best effort
            pass
        self._sever_sessions()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "FaultProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -------------------------------------------------------- fault knobs

    def set_faults(self, *, drop_frac: float | None = None,
                   delay_s: float | None = None,
                   garble_frac: float | None = None) -> None:
        """Adjust the frame-fault lottery (None leaves a knob unchanged)."""
        with self._lock:
            if drop_frac is not None:
                if not 0.0 <= drop_frac <= 1.0:
                    raise ValueError("drop_frac outside [0, 1]")
                self.drop_frac = drop_frac
            if delay_s is not None:
                if delay_s < 0:
                    raise ValueError("delay_s negative")
                self.delay_s = delay_s
            if garble_frac is not None:
                if not 0.0 <= garble_frac <= 1.0:
                    raise ValueError("garble_frac outside [0, 1]")
                self.garble_frac = garble_frac

    def clear_faults(self) -> None:
        """Reset every frame-fault knob to clean pass-through."""
        self.set_faults(drop_frac=0.0, delay_s=0.0, garble_frac=0.0)

    def partition(self) -> None:
        """Black-hole the upstream: sever sessions, refuse new ones."""
        self.partitioned = True
        self._sever_sessions()

    def heal(self) -> None:
        """End the partition; new connections relay normally again."""
        self.partitioned = False

    # ------------------------------------------------------------ plumbing

    def _sever_sessions(self) -> None:
        with self._lock:
            sessions = list(self._sessions)
            self._sessions.clear()
        for pair in sessions:
            for sock in pair:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if not self._running or self.partitioned:
                self.refused += 1
                conn.close()
                continue
            try:
                up = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                self.refused += 1
                conn.close()
                continue
            pair = (conn, up)
            with self._lock:
                self._sessions.add(pair)
            for src, dst in ((conn, up), (up, conn)):
                threading.Thread(target=self._relay, args=(src, dst, pair),
                                 daemon=True).start()

    def _relay(self, src: socket.socket, dst: socket.socket,
               pair: tuple[socket.socket, socket.socket]) -> None:
        reader = FrameReader(src)
        try:
            while True:
                frame = reader.recv_frame()
                with self._lock:
                    drop = self._rng.random() < self.drop_frac
                    garble = (not drop
                              and self._rng.random() < self.garble_frac)
                    delay = self.delay_s
                if delay:
                    time.sleep(delay)
                if drop:
                    self.dropped += 1
                    continue
                if garble:
                    self.garbled += 1
                    dst.sendall(self._garbled_bytes(frame))
                    continue
                send_frame(dst, frame)
                self.forwarded += 1
        except (ProtocolError, OSError):
            pass
        finally:
            with self._lock:
                self._sessions.discard(pair)
            for sock in pair:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass

    def _garbled_bytes(self, frame) -> bytes:
        """Re-encode the frame with its version byte flipped: the peer's
        reader refuses it and ends the session, exactly like stream
        corruption on a real link — never a silently different key."""
        raw = bytearray(encode(frame))
        raw[0] ^= self._rng.randrange(1, 256)
        return bytes(raw)
