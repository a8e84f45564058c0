"""Availability under failure: a scripted kill/recover schedule against
the live cluster.

The paper's cluster ran on EC2, where instance loss is routine; this
bench measures what that costs.  A three-server live cluster serves a
skewed workload while a :class:`~repro.faults.plan.FaultPlan` kills one
server mid-run and restarts it later.  The hardened
:class:`~repro.live.coordinator.LiveCoordinator` detects the failure,
fails the dead buckets over to ring successors, serves degraded
(recompute) traffic in the meantime, and re-admits + repopulates the
server on recovery — all without a single wrong result.

Emits an availability/hit-rate timeline (per 50-query window, from
deltas of the coordinator's :class:`~repro.live.coordinator.LiveQueryStats`)
to ``benchmarks/results/bench_faults.txt``.
"""

from dataclasses import asdict

import numpy as np

from benchmarks._util import emit
from repro.faults import FailureDetector, FaultPlan, LiveFaultDriver, RetryPolicy
from repro.live.client import LiveClusterClient
from repro.live.coordinator import LiveCoordinator
from repro.live.server import LiveCacheServer

N_QUERIES = 600
WINDOW = 50
KILL_AT, RECOVER_AT = 200, 400
KEYSPACE = 400
RING = 1 << 20
# Spread key ids across the whole ring so all three servers own traffic
# (the identity hash would otherwise pack the keyspace into one bucket).
STRIDE = RING // KEYSPACE


def _derived(key: int) -> bytes:
    """The deterministic 'service': same key => same derived bytes."""
    return (f"derived:{key}:".encode() * 6)[:96]


def test_availability_under_kill_recover(benchmark):
    rng = np.random.default_rng(20100607)
    # Skewed re-reference stream so hits matter (zipf-ish over KEYSPACE).
    keys = ((rng.zipf(1.3, size=N_QUERIES) % KEYSPACE) * STRIDE).astype(
        int).tolist()

    def run() -> dict:
        servers: dict[int, LiveCacheServer] = {
            i: LiveCacheServer(capacity_bytes=1 << 22).start()
            for i in range(3)
        }
        addresses = [servers[i].address for i in range(3)]
        cluster = LiveClusterClient(
            addresses, ring_range=1 << 20,
            retry=RetryPolicy(max_attempts=2, deadline_s=1.0,
                              base_delay_s=0.01, max_delay_s=0.05),
            timeout=1.0)
        coord = LiveCoordinator(
            cluster, _derived,
            detector=FailureDetector(threshold=2))

        def kill(slot: int) -> None:
            servers[slot].stop()

        def restore(slot: int) -> None:
            host, port = addresses[slot]
            servers[slot] = LiveCacheServer(
                host=host, port=port, capacity_bytes=1 << 22).start()
            coord.check_recovery()

        driver = LiveFaultDriver(
            FaultPlan.kill_and_recover(node=0, at=KILL_AT, outage=RECOVER_AT - KILL_AT),
            kill=kill, restore=restore)

        wrong = 0
        windows = []
        last = asdict(coord.stats)
        for i, key in enumerate(keys):
            driver.tick(i)
            value = coord.query(key)
            if value != _derived(key):
                wrong += 1
            if (i + 1) % WINDOW == 0:
                now = asdict(coord.stats)
                windows.append({k: now[k] - last[k] for k in now})
                last = now
        out = {"wrong": wrong, "stats": coord.stats, "windows": windows,
               "servers": len(cluster.clients)}
        cluster.close()
        for server in servers.values():
            server.stop()
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    stats, windows = out["stats"], out["windows"]

    # Hard guarantees: recompute fallback preserves correctness, the ring
    # repaired itself, and the killed server was re-admitted.
    assert out["wrong"] == 0
    assert stats.failovers >= 1
    assert stats.recoveries >= 1
    assert out["servers"] == 3  # back to full strength

    lines = [
        "availability under a scripted kill/recover "
        f"(kill node 0 @ q{KILL_AT}, restart @ q{RECOVER_AT}):",
        "",
        f"{'window':>6} {'queries':>8} {'hit_rate':>9} {'avail':>7} "
        f"{'failovers':>9} {'recoveries':>10}",
    ]
    for i, w in enumerate(windows):
        lines.append(
            f"{i:>6} {w['queries']:>8} {w['hits'] / w['queries']:>9.3f} "
            f"{1.0 - w['degraded_queries'] / w['queries']:>7.3f} "
            f"{w['failovers']:>9} {w['recoveries']:>10}")
    lines += [
        "",
        f"totals: {stats.queries} queries, hit rate {stats.hit_rate:.3f}, "
        f"availability {stats.availability:.3f}",
        f"failure path: {stats.degraded_queries} degraded queries, "
        f"{stats.failovers} failover(s), {stats.recoveries} recovery(ies), "
        f"{stats.recovered_records} records migrated home, "
        f"downtime {stats.downtime_s:.2f}s, "
        f"{out['stats'].dropped_writes} dropped cache writes",
    ]
    emit("bench_faults", "\n".join(lines))
    benchmark.extra_info["availability"] = stats.availability
    benchmark.extra_info["failovers"] = stats.failovers
