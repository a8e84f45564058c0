"""Buddy replication over the live cluster: placement and failover
parity with the simulator, the replica namespace, hinted handoff, drain
crash safety, and anti-entropy rebuild.

The interesting invariants:

- sim and live agree on *where* every replica lives and where every
  failed bucket goes — both are the ring-successor rule, so a failed
  range lands on its buddy — and conclusions drawn in simulation
  transfer to the cluster;
- a put acked before its primary dies stays readable from the buddy
  (the Hypothesis property below), and the restore drain can crash at
  any phase without losing an acked record;
- without a surviving buddy the cluster degrades exactly as the
  unreplicated design did — write off, miss, recompute — never worse.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ring import ConsistentHashRing
from repro.extensions.replication import ReplicationManager
from repro.live.client import LiveCacheClient, LiveClusterClient
from repro.live.migration import finish_move, prepare_move
from repro.live.protocol import ProtocolError
from repro.live.server import LiveCacheServer
from tests.conftest import FakeDest, FakeSource

RING = 1 << 16


def boot_fleet(n=3, capacity=1 << 20, **kw):
    return [LiveCacheServer(capacity_bytes=capacity, **kw).start()
            for _ in range(n)]


@pytest.fixture
def fleet():
    servers = boot_fleet()
    cluster = LiveClusterClient([s.address for s in servers],
                                ring_range=RING, replication=True)
    yield cluster, servers
    cluster.close()
    for s in servers:
        s.stop()


def spread_keys(n=24):
    """Keys strided across the whole ring so every server owns some."""
    return [j * (RING // n) for j in range(n)]


# ================================================ replica namespace unit


class TestReplicaNamespace:
    def test_replica_writes_invisible_to_primary(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            with LiveCacheClient(srv.address) as c:
                c.put(1, b"primary")
                c.put(2, b"mirror", replica=True)
                assert c.get(2) is None                 # primary namespace
                assert c.get(2, replica=True) == b"mirror"
                assert c.get(1, replica=True) is None   # and vice versa
        finally:
            srv.stop()

    def test_replica_namespace_accounted_separately(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20,
                              replica_headroom=0.5).start()
        try:
            with LiveCacheClient(srv.address) as c:
                c.put(1, b"x" * 100)
                c.put(2, b"y" * 40, replica=True)
                stats = c.stats()
                assert stats["used_bytes"] == 100
                assert stats["replica"]["used_bytes"] == 40
                assert stats["replica"]["capacity_bytes"] == (1 << 19)
        finally:
            srv.stop()

    def test_two_phase_ledgers_are_independent(self):
        srv = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            with LiveCacheClient(srv.address) as c:
                c.put(5, b"p")
                c.put(5, b"r", replica=True)
                token, records = c.extract_prepare(0, RING, replica=True)
                assert records == [(5, b"r")]
                c.extract_commit(token, replica=True)
                # the replica extraction never touched the primary copy
                assert c.get(5) == b"p"
                assert c.get(5, replica=True) is None
        finally:
            srv.stop()


# ============================================== sim/live placement parity


class _SimNode:
    """An empty simulated node: what placement and failover read."""

    cloud_node = None

    def __init__(self, node_id):
        self.node_id = node_id

    def __len__(self):
        return 0

    def items(self):
        return []


class _StubCache:
    """The slice of ElasticCooperativeCache that placement and
    failover read."""

    def __init__(self, ring, nodes):
        self.ring = ring
        self.nodes = nodes
        self.cloud = SimpleNamespace(terminate=lambda cloud_node: None)


def sim_mirror(cluster, addresses):
    """A simulator replication manager over a ring with a node at each
    of the live cluster's bucket positions (``addresses`` in the order
    the nodes joined), and the address → node map."""
    sim_ring = ConsistentHashRing(ring_range=cluster.ring.ring_range)
    by_addr = {addr: _SimNode(f"n{i}") for i, addr in enumerate(addresses)}
    for pos in cluster.ring.buckets:
        sim_ring.add_bucket(pos, by_addr[cluster.ring.node_map[pos]])
    cache = _StubCache(sim_ring, list(by_addr.values()))
    return ReplicationManager(cache), by_addr


class TestBuddyParity:
    def test_sim_buddy_matches_live_buddy_on_same_ring(self, fleet):
        cluster, servers = fleet
        sim, by_addr = sim_mirror(cluster, [s.address for s in servers])
        sim_ring = sim.cache.ring
        for key in spread_keys(48):
            live_buddy = cluster.replica.buddy_address(key)
            sim_buddy = sim.buddy_for_hkey(sim_ring.hash_key(key))
            assert sim_buddy is by_addr[live_buddy], (
                f"key {key}: sim places replica on {sim_buddy.node_id}, "
                f"live on {live_buddy}")

    def test_buddy_is_never_the_owner(self, fleet):
        cluster, _ = fleet
        for key in spread_keys(48):
            assert cluster.replica.buddy_address(key) != \
                cluster.address_for(key)

    def test_single_owner_ring_has_no_buddy(self):
        ring = ConsistentHashRing(ring_range=RING)
        node = _SimNode("only")
        ring.add_bucket(100, node)
        ring.add_bucket(9000, node)
        sim = ReplicationManager(_StubCache(ring, [node]))
        assert sim.buddy_for_hkey(50) is None

    def test_failed_buckets_go_to_their_buddy_in_sim_and_live(self, fleet):
        """Failover and placement are one function in both stacks: each
        bucket of a failed node goes to its pre-failure successor owner
        (the buddy holding its replica) under ``fail_server`` and under
        the simulator's ``fail_node`` alike."""
        cluster, servers = fleet
        extra = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            # A fourth server splits a bucket: the ring is no longer
            # one evenly spaced bucket per node.
            cluster.add_server(extra.address, RING // 6)
            joined = [s.address for s in servers] + [extra.address]
            for victim in joined:
                sim, by_addr = sim_mirror(cluster, joined)
                buddy = {b: cluster.ring.successor_owner(b)
                         for b in cluster.ring.buckets_of(victim)}
                assert buddy and victim not in buddy.values()
                cluster.fail_server(victim)
                live_heirs = {b: cluster.ring.node_map[b] for b in buddy}
                assert live_heirs == buddy
                sim.fail_node(by_addr[victim])
                sim_heirs = {b: sim.cache.ring.node_map[b].node_id
                             for b in buddy}
                assert sim_heirs == {b: by_addr[a].node_id
                                     for b, a in buddy.items()}
                cluster.restore_server(victim)
        finally:
            extra.stop()


# ======================================== failover: covered vs written off


class TestFailoverCoverage:
    def test_unreplicated_failover_writes_off_range(self):
        """Regression: with replication off, fail_server behaves exactly
        as the pre-replication design — the dead range is written off
        and its keys read as misses."""
        servers = boot_fleet()
        cluster = LiveClusterClient([s.address for s in servers],
                                    ring_range=RING, replication=False)
        try:
            keys = spread_keys()
            for k in keys:
                cluster.put(k, b"v%d" % k)
            victim = cluster.address_for(keys[0])
            vkeys = [k for k in keys if cluster.address_for(k) == victim]
            servers[[s.address for s in servers].index(victim)].stop()
            cluster.fail_server(victim, forward=False)
            assert all(cluster.get(k) is None for k in vkeys)
        finally:
            cluster.close()
            for s in servers:
                s.stop()

    def test_replicated_failover_serves_from_buddy(self, fleet):
        cluster, servers = fleet
        keys = spread_keys()
        for k in keys:
            cluster.put(k, b"v%d" % k)
        victim = cluster.address_for(keys[0])
        vkeys = [k for k in keys if cluster.address_for(k) == victim]
        assert vkeys
        servers[[s.address for s in servers].index(victim)].stop()
        cluster.fail_server(victim, forward=False)
        for k in vkeys:
            # The interim owner's primary namespace starts empty for the
            # range, so the value can only come from the buddy's copy.
            assert cluster.client_for(k).get(k) is None
            assert cluster.get(k) == b"v%d" % k

    def test_dead_buddy_degrades_to_write_off(self, fleet):
        """The no-replica fallback: when the range's buddy is *also*
        gone, claim_failed leaves it unclaimed and reads degrade to
        misses — never an error, never a stale value."""
        cluster, servers = fleet
        keys = spread_keys()
        for k in keys:
            cluster.put(k, b"v%d" % k)
        victim = cluster.address_for(keys[0])
        buddy = cluster.replica.buddy_address(keys[0])
        addr_of = [s.address for s in servers]
        # Kill the buddy first (its own ranges fail over elsewhere)...
        servers[addr_of.index(buddy)].stop()
        cluster.fail_server(buddy, forward=False)
        # ...then the primary: nothing distinct holds keys[0]'s replica
        # anymore, so its segment is written off.
        servers[addr_of.index(victim)].stop()
        cluster.fail_server(victim, forward=False)
        assert cluster.get(keys[0]) is None


# ================================= property: acked put survives the kill


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=RING - 1),
              st.binary(min_size=1, max_size=64)),
    min_size=1, max_size=12, unique_by=lambda kv: kv[0]))
def test_replica_acked_put_readable_after_primary_kill(items):
    """For any write set: once put() returns, killing any single
    primary leaves every acked value readable (from the buddy)."""
    servers = boot_fleet()
    cluster = LiveClusterClient([s.address for s in servers],
                                ring_range=RING, replication=True)
    try:
        for key, value in items:
            cluster.put(key, value)
        victim = cluster.address_for(items[0][0])
        servers[[s.address for s in servers].index(victim)].stop()
        cluster.fail_server(victim, forward=False)
        for key, value in items:
            assert cluster.get(key) == value
    finally:
        cluster.close()
        for s in servers:
            s.stop()


# ======================================= hinted-handoff drain crash phases


def drain(src, home, lo, hi):
    """One claim's drain, as :meth:`ReplicaManager.drain` runs it: a range
    move out of the buddy's replica namespace into ``home``."""
    return finish_move(prepare_move(src, [(lo, hi)], replica=True), home)


class TestDrainCrashPhases:
    HINTS = {1: b"a", 2: b"b", 7: b"g"}

    def test_clean_drain_moves_hints_home(self):
        src = FakeSource(self.HINTS, replica=True)
        home = FakeDest()
        stored = drain(src, home, 0, 10)
        assert dict(stored) == self.HINTS
        assert home.store == self.HINTS
        assert src.records == {}          # committed: hints deleted

    def test_interim_migration_wins_over_hint(self):
        # Key 2 already came home (newer) via the interim migration;
        # the drain must not clobber it, and must not re-account it.
        src = FakeSource(self.HINTS, replica=True)
        home = FakeDest(resident={2: b"newer"})
        stored = drain(src, home, 0, 10)
        assert dict(stored) == {1: b"a", 7: b"g"}
        assert home.store[2] == b"newer"

    def test_crash_before_commit_retains_hints(self):
        # Phase: copy fails mid-batch.  The prepare is aborted (records
        # retained at the buddy) and the error propagates — a retried
        # drain starts clean and loses nothing.
        src = FakeSource(self.HINTS, replica=True)
        home = FakeDest(fail_at=2)
        with pytest.raises(ProtocolError):
            drain(src, home, 0, 10)
        assert src.records == self.HINTS
        assert src.aborts == 1 and src.commits == 0

    def test_crash_after_prepare_lease_expires(self):
        # Phase: nothing after prepare ever runs (caller death).  The
        # lease releases the snapshot (abort stands in for expiry —
        # same ledger path) and the hints are still there for the
        # re-drain.
        src = FakeSource(self.HINTS, replica=True)
        token, _ = src.extract_prepare(0, 10, replica=True)
        src.ledger.abort(token)
        assert src.records == self.HINTS
        stored = drain(src, FakeDest(), 0, 10)
        assert dict(stored) == self.HINTS

    def test_replay_after_partial_copy_is_idempotent(self):
        # Phase: copy applied, commit lost.  The re-drain re-copies
        # (if_absent skips the applied prefix) and finally commits.
        src = FakeSource(self.HINTS, replica=True)
        home = FakeDest()
        token, records = src.extract_prepare(0, 10, replica=True)
        home.multi_put(records, if_absent=True)     # copy landed...
        src.ledger.abort(token)                     # ...commit lost
        stored = drain(src, home, 0, 10)
        assert stored == []                 # everything already home
        assert home.store == self.HINTS
        assert src.records == {}


# ============================================ handoff + rebuild end-to-end


class TestHandoffAndRebuild:
    def _kill(self, cluster, servers, victim):
        slot = [s.address for s in servers].index(victim)
        servers[slot].stop()
        cluster.fail_server(victim, forward=False)
        return slot

    def test_outage_writes_hint_and_drain_home(self, fleet):
        cluster, servers = fleet
        keys = spread_keys()
        for k in keys:
            cluster.put(k, b"old%d" % k)
        victim = cluster.address_for(keys[0])
        vkeys = [k for k in keys if cluster.address_for(k) == victim]
        buddy = {k: cluster.replica.buddy_address(k) for k in vkeys}
        slot = self._kill(cluster, servers, victim)
        for k in vkeys:                      # outage writes
            cluster.put(k, b"new%d" % k)
        # Each outage write left its hint in the claimed buddy's
        # replica namespace.
        for k in vkeys:
            with LiveCacheClient(buddy[k]) as bc:
                assert bc.get(k, replica=True) == b"new%d" % k
        host, port = victim
        servers[slot] = LiveCacheServer(host=host, port=port,
                                        capacity_bytes=1 << 20).start()
        cluster.restore_server(victim)
        for k in keys:
            expect = b"new%d" % k if k in vkeys else b"old%d" % k
            assert cluster.get(k) == expect
        # the outage values now live on the restored server itself
        direct = LiveCacheClient(victim)
        try:
            assert all(direct.get(k) == b"new%d" % k for k in vkeys)
        finally:
            direct.close()

    def test_add_server_rebuilds_replicas_for_new_ranges(self, fleet):
        cluster, servers = fleet
        keys = spread_keys()
        for k in keys:
            cluster.put(k, b"v%d" % k)
        extra = LiveCacheServer(capacity_bytes=1 << 20).start()
        try:
            bucket = RING // 6
            cluster.add_server(extra.address, bucket)
            # Every key's replica must sit where the *new* ring says,
            # including ranges whose buddy the split changed.
            for k in keys:
                buddy = cluster.replica.buddy_address(k)
                with LiveCacheClient(buddy) as bc:
                    assert bc.get(k, replica=True) == b"v%d" % k, (
                        f"key {k} not replicated on post-split buddy")
        finally:
            extra.stop()

    def test_restored_server_survives_second_kill(self, fleet):
        """After a full kill/restore cycle the rebuild has re-placed the
        restored range's replicas — so a *second* kill of the same node
        is just as survivable as the first."""
        cluster, servers = fleet
        keys = spread_keys()
        for k in keys:
            cluster.put(k, b"v%d" % k)
        victim = cluster.address_for(keys[0])
        vkeys = [k for k in keys if cluster.address_for(k) == victim]
        slot = self._kill(cluster, servers, victim)
        host, port = victim
        servers[slot] = LiveCacheServer(host=host, port=port,
                                        capacity_bytes=1 << 20).start()
        cluster.restore_server(victim)
        slot = self._kill(cluster, servers, victim)   # again
        for k in vkeys:
            assert cluster.get(k) == b"v%d" % k
