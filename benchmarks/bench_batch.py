"""Batched hot path: ops/sec at batch sizes 1/8/64/256 vs serial ops.

Measures the real TCP implementation on localhost — the same wire and
store the cluster uses — comparing per-key ``put``/``get`` round-trips
against ``multi_put``/``multi_get`` at increasing batch sizes.  The win
is round-trip amortization (one frame with a packed body per
``max_batch`` keys, chunks pipelined), so it grows with batch size until
serialization cost dominates.  The serial line also reports the per-op
cost of one round-trip (client and server share this process).

Run via ``make batch``; the report lands in
``benchmarks/results/bench_batch.txt``.
"""

import time

from benchmarks._util import emit
from repro.live.client import LiveCacheClient
from repro.live.server import LiveCacheServer

N_KEYS = 512
PAYLOAD = bytes(range(256)) * 4  # 1 KiB, the paper's result size
BATCH_SIZES = (1, 8, 64, 256)


def _measure(fn) -> float:
    """Best-of-40 wall-clock seconds.  Localhost noise is spiky, and a
    shared VM can run slow for whole seconds: a few passes of a few tens
    of ms each often never see the machine's normal speed."""
    best = float("inf")
    for _ in range(40):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batch_speedup():
    server = LiveCacheServer(capacity_bytes=1 << 27).start()
    try:
        client = LiveCacheClient(server.address)
        keys = list(range(N_KEYS))
        items = [(k, PAYLOAD) for k in keys]

        def serial():
            for k, v in items:
                client.put(k, v)
            found = 0
            for k in keys:
                found += client.get(k) is not None
            assert found == N_KEYS

        serial_s = _measure(serial)
        serial_ops = 2 * N_KEYS / serial_s

        lines = [
            f"batched hot path: {N_KEYS} keys x {len(PAYLOAD)} B payloads, "
            f"put+get cycles on localhost",
            f"  serial      {serial_ops:10.0f} ops/s   (baseline, "
            f"{1e6 / serial_ops:.1f} us/op)",
        ]
        speedups = {}
        for size in BATCH_SIZES:
            client.max_batch = size

            def batched():
                result = client.multi_put(items)
                assert result.ok and result.acked == N_KEYS
                found = client.multi_get(keys)
                assert len(found) == N_KEYS

            batch_s = _measure(batched)
            ops = 2 * N_KEYS / batch_s
            speedups[size] = ops / serial_ops
            lines.append(f"  batch={size:<4}  {ops:10.0f} ops/s   "
                         f"{speedups[size]:5.1f}x serial")

        stats = client.stats()
        lines.append(f"  server saw {stats['multi_ops']} multi-ops, "
                     f"max batch {stats['max_batch']}, "
                     f"{stats['stripe_contention']} contended store-lock "
                     f"acquisitions")
        emit("bench_batch", "\n".join(lines))

        # Acceptance: batch 64 amortizes >= 5x over per-key round-trips.
        assert speedups[64] >= 5.0, \
            f"batch=64 speedup {speedups[64]:.1f}x below 5x floor"
        # Monotone-ish sanity: big batches beat tiny ones.
        assert speedups[256] > speedups[1]
        client.close()
    finally:
        server.stop()
