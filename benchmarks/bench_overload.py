"""Overload protection under offered loads of 1x/2x/4x server capacity.

A single live server is given a deliberately tiny work budget
(``max_workers`` concurrent ops of ``OP_DELAY_S`` synthetic service time
each, plus a bounded admission queue of ``max_queue``).  Closed-loop
client threads then offer 1x, 2x and 4x that capacity.  The point of the
experiment is the *shape* of the degradation:

* without admission control, 4x load means an unbounded backlog — every
  queued request waits behind all earlier ones and p99 grows without
  limit until the node dies;
* with the gate, the queue depth is capped, the excess is refused with
  an ``OVERLOADED`` reply carrying a retry-after hint, and the
  p99 of *admitted* requests stays flat — overload shows up as shed rate,
  not as death.

Emits a per-load-level table (throughput, shed rate, latency
percentiles, peak queue depth) to ``benchmarks/results/bench_overload.txt``.
"""

import threading
import time

import numpy as np
import pytest

from benchmarks._util import emit
from repro.faults import RetryPolicy
from repro.live.client import LiveCacheClient
from repro.live.protocol import OverloadedError, ProtocolError
from repro.live.server import LiveCacheServer

MAX_WORKERS = 2          #: concurrent ops the server executes
MAX_QUEUE = 2            #: bounded admission queue beyond the workers
OP_DELAY_S = 0.005       #: synthetic service time per op (holding a slot)
OPS_PER_THREAD = 120
VALUE = b"overload-bench-value" * 4
#: offered load as closed-loop threads per level; MAX_WORKERS threads keep
#: every worker busy with no queueing = 1x capacity.
LEVELS = {"1x": MAX_WORKERS, "2x": 2 * MAX_WORKERS, "4x": 4 * MAX_WORKERS}
#: no client-side retry — a shed must surface as a shed, not hide
#: behind a successful second attempt.
NO_RETRY = RetryPolicy(max_attempts=1, deadline_s=5.0,
                       base_delay_s=0.001, max_delay_s=0.001)


def _worker(address, start: threading.Event, out: dict) -> None:
    """One closed-loop client: fire ops back-to-back, tally outcomes."""
    latencies: list[float] = []
    shed = 0
    errors = 0
    client = LiveCacheClient(address, timeout=5.0, retry=NO_RETRY)
    try:
        start.wait()
        for i in range(OPS_PER_THREAD):
            t0 = time.monotonic()
            try:
                client.put(i, VALUE)
                latencies.append(time.monotonic() - t0)
            except OverloadedError:
                shed += 1
            except ProtocolError:
                errors += 1
    finally:
        client.close()
    out["latencies"] = latencies
    out["shed"] = shed
    out["errors"] = errors


def _offer_load(address, n_threads: int) -> dict:
    """Run ``n_threads`` closed-loop clients; aggregate their outcomes."""
    start = threading.Event()
    results = [{} for _ in range(n_threads)]
    threads = [
        threading.Thread(target=_worker, args=(address, start, results[i]))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    start.set()
    t0 = time.monotonic()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0
    lat = np.array(sorted(x for r in results for x in r["latencies"]))
    shed = sum(r["shed"] for r in results)
    errors = sum(r["errors"] for r in results)
    attempted = n_threads * OPS_PER_THREAD
    return {
        "attempted": attempted,
        "ok": int(lat.size),
        "shed": shed,
        "errors": errors,
        "shed_rate": shed / attempted,
        "elapsed_s": elapsed,
        "throughput": lat.size / elapsed if elapsed else 0.0,
        "p50_ms": float(np.percentile(lat, 50)) * 1e3 if lat.size else 0.0,
        "p99_ms": float(np.percentile(lat, 99)) * 1e3 if lat.size else 0.0,
    }


@pytest.mark.slow
def test_overload_shed_keeps_p99_bounded(benchmark):
    def run() -> dict:
        levels = {}
        for label, n_threads in LEVELS.items():
            # Fresh server per level so gate counters (peak queue depth,
            # sheds) are attributable to that level alone.
            server = LiveCacheServer(
                capacity_bytes=1 << 22, max_workers=MAX_WORKERS,
                max_queue=MAX_QUEUE, op_delay_s=OP_DELAY_S).start()
            try:
                stats = _offer_load(server.address, n_threads)
                probe = LiveCacheClient(server.address, timeout=5.0)
                server_stats = probe.stats()
                probe.close()
                stats["peak_queue_depth"] = server_stats["peak_queue_depth"]
                stats["server_shed"] = server_stats["shed_overload"]
                levels[label] = stats
            finally:
                server.stop()
        return levels

    levels = benchmark.pedantic(run, rounds=1, iterations=1)

    # Hard guarantees, per the overload model (DESIGN.md sec. 7): queue
    # depth is bounded by the gate at every load level; at 4x the excess
    # surfaces as shed rate while the p99 of admitted ops stays flat
    # (worst admitted wait ~= (max_queue/max_workers + 1) * op_delay).
    for label, s in levels.items():
        assert s["errors"] == 0, f"{label}: unexpected transport errors"
        assert s["peak_queue_depth"] <= MAX_QUEUE, label
        assert s["p99_ms"] <= 250.0, f"{label}: p99 {s['p99_ms']:.1f} ms"
    assert levels["4x"]["shed"] > 0, "4x offered load must shed"
    assert levels["4x"]["shed_rate"] >= levels["1x"]["shed_rate"]

    lines = [
        "overload protection: closed-loop offered load vs a "
        f"{MAX_WORKERS}-worker/{MAX_QUEUE}-queue server "
        f"({OP_DELAY_S * 1e3:.0f} ms synthetic service time):",
        "",
        f"{'load':>5} {'attempted':>9} {'ok':>6} {'shed':>6} "
        f"{'shed_rate':>9} {'p50_ms':>7} {'p99_ms':>7} {'peak_q':>6} "
        f"{'ops/s':>7}",
    ]
    for label, s in levels.items():
        lines.append(
            f"{label:>5} {s['attempted']:>9} {s['ok']:>6} {s['shed']:>6} "
            f"{s['shed_rate']:>9.3f} {s['p50_ms']:>7.2f} "
            f"{s['p99_ms']:>7.2f} {s['peak_queue_depth']:>6} "
            f"{s['throughput']:>7.0f}")
    lines += [
        "",
        "invariant: queue depth stays <= max_queue and p99 stays flat at "
        "every level;",
        "excess load surfaces as shed rate (refusals with retry_after_ms),"
        " not as latency collapse.",
    ]
    emit("bench_overload", "\n".join(lines))
    benchmark.extra_info["shed_rate_4x"] = levels["4x"]["shed_rate"]
    benchmark.extra_info["p99_ms_4x"] = levels["4x"]["p99_ms"]
