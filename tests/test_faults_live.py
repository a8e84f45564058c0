"""Chaos tests: kill/partition real servers mid-workload.

Extends the soak pattern of ``tests/test_live_soak.py`` with actual
failures.  The invariants under test come straight from the failure
model (DESIGN.md): a dead cache node may cost latency, never
correctness — every completed query must return the fault-free derived
bytes; the coordinator must route around the corpse (degraded mode +
ring repair); and a restarted server must be re-admitted and
repopulated without manual intervention.
"""

import os

import pytest

from repro.faults import (FailureDetector, FaultEvent, FaultPlan, FaultProxy,
                          LiveFaultDriver, RetryPolicy)
from repro.live.client import LiveClusterClient
from repro.live.coordinator import LiveCoordinator
from repro.live.server import LiveCacheServer

pytestmark = pytest.mark.slow  # real sockets + sleeps: chaos-suite only

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20100607"))

FAST_RETRY = RetryPolicy(max_attempts=2, deadline_s=1.0,
                         base_delay_s=0.01, max_delay_s=0.05)


def derived(key: int) -> bytes:
    """Deterministic 'service' payload: same key => same bytes."""
    return (f"derived:{key}:".encode() * 4)[:64]


RING = 1 << 20  # ring_range shared by every cluster in this module


def keystream(n: int, keyspace: int = 200) -> list[int]:
    """A deterministic re-referencing workload (no external RNG state).

    Keys are strided across the whole ring so every server owns a share
    of the traffic (the identity hash would otherwise pack a small
    keyspace into the first bucket)."""
    stride = RING // keyspace
    return [((i * 17 + SEED) % keyspace) * stride for i in range(n)]


def test_kill_mid_workload_zero_incorrect_results():
    """Kill one of three servers mid-trace: the full trace completes with
    correct results, the dead shard is failed over, and a restart is
    re-admitted with its interval repopulated."""
    servers = {i: LiveCacheServer(capacity_bytes=1 << 22).start()
               for i in range(3)}
    addresses = [servers[i].address for i in range(3)]
    cluster = LiveClusterClient(addresses, ring_range=RING,
                                retry=FAST_RETRY, timeout=1.0)
    coord = LiveCoordinator(cluster, derived,
                            detector=FailureDetector(threshold=2))

    def kill(slot: int) -> None:
        servers[slot].stop()

    def restore(slot: int) -> None:
        host, port = addresses[slot]
        servers[slot] = LiveCacheServer(host=host, port=port,
                                        capacity_bytes=1 << 22).start()
        coord.check_recovery()

    driver = LiveFaultDriver(
        FaultPlan.kill_and_recover(node=1, at=120, outage=160),
        kill=kill, restore=restore)

    keys = keystream(400)
    try:
        for i, key in enumerate(keys):
            driver.tick(i)
            assert coord.query(key) == derived(key), f"wrong bytes at q{i}"

        # Degraded-mode routing happened, the ring was repaired without
        # manual intervention, and the restart was re-admitted.
        assert coord.stats.degraded_queries >= 1
        assert coord.stats.failovers == 1
        assert coord.stats.recoveries == 1
        assert not cluster.failed_servers
        assert len(cluster.clients) == 3

        # Post-recovery re-population: the restored server holds records
        # again (migrated home from the interim owners), and a key in its
        # interval is a *hit* served by it.
        addr = addresses[1]
        restored_stats = cluster.clients[addr].stats()
        assert restored_stats["records"] > 0
        # A key queried after recovery is cached on the restored shard.
        hot = next(k for k in keys[281:]
                   if cluster.address_for(k) == addr)
        before = coord.stats.hits
        assert coord.query(hot) == derived(hot)
        assert coord.stats.hits == before + 1
    finally:
        cluster.close()
        for server in servers.values():
            server.stop()


def test_partition_window_degrades_then_heals():
    """A partitioned (not crashed) shard behind a FaultProxy: traffic
    degrades during the window, the shard is condemned and failed over,
    and after healing it is re-admitted — correctness throughout."""
    servers = [LiveCacheServer(capacity_bytes=1 << 22).start()
               for _ in range(2)]
    proxies = [FaultProxy(s.address, seed=SEED).start() for s in servers]
    addresses = [p.address for p in proxies]
    cluster = LiveClusterClient(addresses, ring_range=RING,
                                retry=FAST_RETRY, timeout=1.0)
    coord = LiveCoordinator(cluster, derived,
                            detector=FailureDetector(threshold=2))
    # Partition proxy 0 for queries [60, 140); the duration-windowed
    # fault auto-heals via the driver.
    driver = LiveFaultDriver(
        FaultPlan([FaultEvent(at=60, kind="partition", node=0, duration=80)]),
        proxies=proxies)

    keys = keystream(260, keyspace=120)
    try:
        for i, key in enumerate(keys):
            driver.tick(i)
            value = coord.query(key)
            assert value == derived(key), f"wrong bytes at q{i}"
            if i % 16 == 0:
                coord.check_recovery()  # probe for healed partitions

        coord.check_recovery()
        assert coord.stats.degraded_queries >= 1
        assert coord.stats.failovers >= 1
        assert coord.stats.recoveries >= 1
        assert not cluster.failed_servers
        assert coord.stats.availability < 1.0  # the window was visible
    finally:
        cluster.close()
        for proxy in proxies:
            proxy.stop()
        for server in servers:
            server.stop()


def test_flaky_frames_are_absorbed_by_retry():
    """A lossy link (dropped reply frames) behind the proxy: the client's
    retry policy absorbs the flaps; every op still completes correctly."""
    server = LiveCacheServer(capacity_bytes=1 << 22).start()
    proxy = FaultProxy(server.address, seed=SEED).start()
    # Generous deadline, tiny timeout: a dropped frame surfaces as a
    # socket timeout fast, then the retry reconnects.
    retry = RetryPolicy(max_attempts=4, deadline_s=5.0,
                        base_delay_s=0.01, max_delay_s=0.05)
    cluster = LiveClusterClient([proxy.address], ring_range=RING,
                                retry=retry, timeout=0.3)
    coord = LiveCoordinator(cluster, derived)
    proxy.set_faults(drop_frac=0.1)
    keys = keystream(80, keyspace=30)
    try:
        for i, key in enumerate(keys):
            assert coord.query(key) == derived(key), f"wrong bytes at q{i}"
        assert proxy.dropped > 0          # the fault actually fired
        assert cluster.total_retries > 0  # and retries absorbed it
    finally:
        proxy.clear_faults()
        cluster.close()
        proxy.stop()
        server.stop()


def test_crash_between_prepare_and_commit_loses_nothing(wait_until):
    """The two-phase migration invariant, live: crash the migrator after
    prepare (and a partial copy), kill the destination mid-copy, then
    recover — at every point the record set matches the fault-free
    oracle: zero lost, and zero duplicated once the migration completes.
    """
    from repro.live.client import LiveCacheClient
    from repro.live.migration import finish_move, prepare_move
    from repro.live.protocol import ProtocolError

    lo, hi = 0, RING // 2
    keys = [k for k in keystream(120, keyspace=60) if lo <= k <= hi]
    oracle = {k: derived(k) for k in keys}

    src_server = LiveCacheServer(capacity_bytes=1 << 22).start()
    dst_server = LiveCacheServer(capacity_bytes=1 << 22).start()
    src = LiveCacheClient(src_server.address, timeout=1.0, retry=FAST_RETRY)
    dst = LiveCacheClient(dst_server.address, timeout=1.0, retry=FAST_RETRY)
    try:
        for k, v in oracle.items():
            src.put(k, v)

        # --- crash 1: the *migrator* dies between prepare and commit,
        # after copying half the records.  Nothing was deleted at the
        # source (records are retained under the lease), so the oracle
        # set is fully readable; the half-copied records are duplicates.
        token, records = src.extract_prepare(lo, hi, lease_s=0.2)
        for k, v in records[: len(records) // 2]:
            dst.put(k, v)
        # (migrator crashes here: token orphaned, commit never sent)
        for k, v in oracle.items():
            assert src.get(k) == v, "prepare must retain records"
        # ...until the orphaned lease expires (the ledger purges lazily,
        # so pending==0 *is* the expiry signal)...
        wait_until(lambda: src.stats()["transfers_pending"] == 0,
                   timeout_s=5.0, desc="orphaned lease expiry")
        assert src.extract_commit(token) == 0   # ...so commit is a no-op
        for k, v in oracle.items():
            assert src.get(k) == v

        # --- crash 2: the *destination* dies mid-copy.  finish_move
        # aborts the prepare; the source still owns every record.
        dst_server.stop()
        with pytest.raises((ProtocolError, OSError)):
            finish_move(prepare_move(src, [(lo, hi)]), dst)
        for k, v in oracle.items():
            assert src.get(k) == v, "aborted migration must retain records"
        assert src.stats()["transfers_pending"] == 0  # aborted, not leaked

        # --- recovery: restart the destination, run the migration to
        # completion.  Exactly the oracle set, exactly once.
        host, port = dst_server.address
        dst_server = LiveCacheServer(host=host, port=port,
                                     capacity_bytes=1 << 22).start()
        dst.close()
        dst = LiveCacheClient(dst_server.address, timeout=1.0,
                              retry=FAST_RETRY)
        moved = finish_move(prepare_move(src, [(lo, hi)]), dst)
        assert {k for k, _ in moved} == set(oracle)
        src_left = src.sweep(lo, hi)
        dst_now = dst.sweep(lo, hi)
        assert src_left == [], "commit must delete the source copies"
        assert {k: v for k, v in dst_now} == oracle  # zero lost
        assert len(dst_now) == len(oracle)           # zero duplicated
    finally:
        src.close()
        dst.close()
        src_server.stop()
        dst_server.stop()


def test_health_sweep_detects_silent_death():
    """With ``health_every`` set, a server that dies while *idle* (no
    traffic routed to it) is still condemned by the ping sweep."""
    servers = {i: LiveCacheServer(capacity_bytes=1 << 22).start()
               for i in range(2)}
    addresses = [servers[i].address for i in range(2)]
    cluster = LiveClusterClient(addresses, ring_range=RING,
                                retry=FAST_RETRY, timeout=1.0)
    coord = LiveCoordinator(cluster, derived,
                            detector=FailureDetector(threshold=2),
                            health_every=10)
    try:
        # Keys that all route to slot 0, so slot 1 sees no traffic.
        cold = [k for k in range(200) if cluster.address_for(k) == addresses[0]]
        servers[1].stop()
        for key in (cold * 3)[:40]:
            assert coord.query(key) == derived(key)
        assert coord.stats.failovers == 1
        assert addresses[1] in cluster.failed_servers
    finally:
        cluster.close()
        for server in servers.values():
            server.stop()
