"""Benchmark-owned server launcher: ``LiveCacheServer`` children.

Each server runs in its own process (``server_child.py``), so the load
generator never shares a GIL with the servers it measures.  A handle has
the ``.address``/``.stop()`` shape ``LiveCoordinator.spawn_server``
expects; :class:`SparePool` boots spares during set-up so that a growth
step during the measured run costs no process boot.
"""

from __future__ import annotations

import json
import selectors
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent / "server_child.py"
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _read_line(proc: subprocess.Popen, timeout: float) -> dict:
    """One JSON line from the child's stdout, or raise on timeout/EOF."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise RuntimeError(f"server child {proc.pid} timed out")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"server child {proc.pid} exited "
                           f"(code {proc.poll()})")
    return json.loads(line)


class ServerHandle:
    """One server child.  :meth:`stop` ends it and keeps its report."""

    def __init__(self, config: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.address: tuple[str, int] | None = None
        self.report: dict | None = None
        self.stopping = False

    def wait_ready(self) -> "ServerHandle":
        try:
            port = _read_line(self.proc, BOOT_TIMEOUT_S)["port"]
        except BaseException:
            self.kill()
            raise
        self.address = ("127.0.0.1", int(port))
        return self

    def reset_trace(self) -> None:
        """Drop the spans the child recorded so far."""
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        _read_line(self.proc, STOP_TIMEOUT_S)

    def request_stop(self) -> None:
        """Tell the child to stop without waiting for it."""
        if not self.stopping:
            self.stopping = True
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()

    def stop(self) -> dict:
        """Stop the child; returns ``{"rss_mb", "stats"[, "spans",
        "counts"]}``.  Idempotent."""
        if self.report is not None:
            return self.report
        try:
            self.request_stop()
            self.report = _read_line(self.proc, STOP_TIMEOUT_S)
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired):
            self.kill()
            raise
        finally:
            self._close_pipes()
        return self.report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def boot(n: int, config: dict) -> list[ServerHandle]:
    """Start ``n`` children in parallel and wait until all serve."""
    handles = [ServerHandle(config) for _ in range(n)]
    try:
        for handle in handles:
            handle.wait_ready()
    except BaseException:
        for handle in handles:
            handle.kill()
        raise
    return handles


def stop_all(handles: list[ServerHandle]) -> list[dict]:
    """Stop every child at once; returns their reports in order.  A child
    that fails to stop is killed, the rest still stop, and the first
    error is raised."""
    for handle in handles:
        try:
            handle.request_stop()
        except OSError:
            pass  # its stop() below kills it and raises
    reports, error = [], None
    for handle in handles:
        try:
            reports.append(handle.stop())
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired) as exc:
            error = error or exc
    if error is not None:
        raise error
    return reports


class SparePool:
    """Servers booted ahead of need; :meth:`spawn` hands one out.

    An empty pool boots a child on demand and counts it in
    ``cold_boots``: that boot then lands inside the measured run.
    """

    def __init__(self, spares: list[ServerHandle], config: dict) -> None:
        """``spares``: booted children of ``config``."""
        self.config = config
        self.spares = list(spares)
        self.cold_boots = 0

    def spawn(self) -> ServerHandle:
        if self.spares:
            return self.spares.pop()
        self.cold_boots += 1
        return ServerHandle(self.config).wait_ready()

    def close(self) -> None:
        for handle in self.spares:
            handle.kill()
        self.spares.clear()
