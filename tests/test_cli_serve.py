"""Subprocess test for the `repro serve` CLI command."""

import os
import re
import subprocess
import sys
import time

from repro.live.client import LiveCacheClient


def test_serve_command_serves_real_traffic(tmp_path):
    # stdout is a pipe, so the banner must be flushed explicitly: an
    # inherited PYTHONUNBUFFERED would hide a missing flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--capacity", "1048576", "--run-seconds", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on (\S+):(\d+)", line)
        assert match, f"unexpected banner: {line!r}"
        host, port = match.group(1), int(match.group(2))

        with LiveCacheClient((host, port)) as client:
            assert client.ping()
            client.put(7, b"over-the-cli")
            assert client.get(7) == b"over-the-cli"
            assert client.stats()["capacity_bytes"] == 1048576
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_serve_respects_run_seconds():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--run-seconds", "0.3"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0
    assert "server stopped" in proc.stdout
    assert time.time() - t0 < 25
