"""Seeded chaos regressions: the consistency harness as a test.

Tier-1 runs three fixed seeds of the full ``mix`` gauntlet — overload
shed, GBA split, contraction merge, kill/restore — against a real
in-process cluster and demands a per-key linearizable history with
zero lost acked writes (the strict model: kills are partition-style,
so process death never excuses loss here).  Seeds are pinned so a
regression is a repro, not a flake; the wider randomized sweep and the
lossy crash-nemesis runs ride in the slow (chaos) tier.
"""

import os

import pytest

from repro.check import CheckConfig, run_check
from repro.check.runner import _split_bucket
from repro.faults import RetryPolicy
from repro.live import LiveCacheServer, LiveClusterClient

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20100607"))

#: pinned tier-1 seeds — chosen once, arbitrary, never changed casually
REGRESSION_SEEDS = (11, 29, 47)


def run(seed: int, nemesis: str, **overrides) -> "object":
    config = CheckConfig(seed=seed, clients=2, ops_per_client=60,
                         nemesis=nemesis, keyspace=12, **overrides)
    return run_check(config)


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_mix_nemesis_history_is_linearizable(seed):
    report = run(seed, "mix")
    assert report.ok, report.render()
    applied = [event.kind for event in report.nemesis_events]
    # The gauntlet actually ran: one split, one merge, one
    # kill/restore and an overload window all hit this history.
    for kind in ("overload", "split", "merge", "crash", "recover"):
        assert kind in applied, f"nemesis never applied {kind}: {applied}"
    # Strict model: every acked write is accounted for.
    assert not any(v.reason == "lost_ack" for v in report.result.violations)


def test_split_alone_preserves_linearizability():
    report = run(SEED % 1000, "split")
    assert report.ok, report.render()
    assert any(e.kind == "split" for e in report.nemesis_events)


def test_merge_alone_preserves_linearizability():
    report = run(SEED % 1000 + 1, "merge")
    assert report.ok, report.render()
    kinds = [e.kind for e in report.nemesis_events]
    assert "merge" in kinds


def test_killrestore_is_strict_no_lost_acks():
    # Partition-style kill: the wounded server survives as a
    # forwarding source, so even mid-failover nothing may be lost.
    report = run(SEED % 1000 + 2, "killrestore")
    assert report.ok, report.render()
    assert not report.config.lossy


def test_crash_nemesis_is_checked_lossy():
    # A real process death may lose records (legal under the lossy
    # model) but must never serve stale or never-written values.
    report = run(SEED % 1000 + 3, "crash")
    assert report.ok, report.render()
    assert report.config.lossy


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_replica_kill_nemesis_is_strict(seed):
    # Same real process death as "crash", but buddy replication is on —
    # so the history must hold to the STRICT model: acked writes into
    # the dead range stay readable (from the buddy's replica namespace)
    # and the restore drain may not resurrect stale values.
    report = run(seed, "replica-kill")
    assert report.ok, report.render()
    assert report.config.replicate
    assert not report.config.lossy
    kinds = [e.kind for e in report.nemesis_events]
    assert "crash" in kinds and "recover" in kinds
    assert not any(v.reason == "lost_ack" for v in report.result.violations)


@pytest.mark.slow
@pytest.mark.parametrize("offset", range(6))
def test_randomized_nemesis_sweep(offset):
    """The wide net: random schedules over derived seeds, more clients,
    longer histories.  Chaos tier — run via ``make test-faults``."""
    report = run_check(CheckConfig(
        seed=SEED + offset, clients=3, ops_per_client=90,
        nemesis="random", keyspace=16))
    assert report.ok, report.render()


@pytest.mark.slow
@pytest.mark.parametrize("offset", range(3))
def test_mix_nemesis_soak(offset):
    report = run_check(CheckConfig(
        seed=SEED + 100 + offset, clients=3, ops_per_client=120,
        nemesis="mix", keyspace=20))
    assert report.ok, report.render()


# ------------------------------------------------------- split placement
#
# The split nemesis asks each server for its own record count: the
# fullest server's widest segment is split at its midpoint.  Buckets
# sit at 21844, 43689 and 65535 on a 1 << 16 ring, so the last
# interval is the widest by one.


@pytest.fixture
def trio():
    servers = [LiveCacheServer(capacity_bytes=1 << 22).start()
               for _ in range(3)]
    cluster = LiveClusterClient(
        [s.address for s in servers], ring_range=1 << 16,
        retry=RetryPolicy(max_attempts=2, deadline_s=1.0), timeout=2.0)
    yield cluster, [s.address for s in servers]
    cluster.close()
    for s in servers:
        s.stop()


def test_split_lands_in_the_fullest_servers_range(trio):
    cluster, addrs = trio
    cluster.put_many([(k, b"v") for k in range(0, 20000, 500)])
    mid = _split_bucket(cluster)
    assert mid is not None and 0 < mid < 21844
    assert cluster.ring.node_for_hkey(mid) == addrs[0]


def test_split_of_a_cold_cluster_takes_the_widest_interval(trio):
    cluster, addrs = trio
    mid = _split_bucket(cluster)
    assert mid == 43690 + (65535 - 43690) // 2
    assert cluster.ring.node_for_hkey(mid) == addrs[2]


def test_split_counts_records_after_partition_and_restore(trio):
    cluster, addrs = trio
    keys = list(range(0, 20000, 500))
    cluster.put_many([(k, b"old") for k in keys])
    # Partition-style failover: server 0 keeps its residents while its
    # interval is served by server 1; the outage rewrites half the keys.
    cluster.fail_server(addrs[0], forward=True)
    cluster.put_many([(k, b"new") for k in keys[::2]])
    cluster.restore_server(addrs[0])
    loads = [cluster.clients[a].stats()["records"] for a in addrs]
    assert loads == [len(keys), 0, 0]
    assert cluster.get_many(keys) == {
        k: b"new" if i % 2 == 0 else b"old" for i, k in enumerate(keys)}
    mid = _split_bucket(cluster)
    assert mid is not None and 0 < mid < 21844
    assert cluster.ring.node_for_hkey(mid) == addrs[0]
