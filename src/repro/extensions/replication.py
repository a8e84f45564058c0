"""Record replication for transient availability.

Sec. V notes that DHTs tolerate churn but "most DHT-based implementations
do not focus on offering transient data availability when a node
disconnects, which is crucial to our application scenario"; Sec. VI lists
"data replication" among the mitigations.  This extension keeps one
replica of every cached record on a *buddy* node, and can rebuild a
failed node's records from those replicas — turning a node loss from a
cold-cache event into a brief re-insert burst.

Placement follows the *ring successor* rule — a record's buddy is the
owner of the first bucket circularly after the record's own bucket that
belongs to a different node
(:meth:`repro.core.ring.ConsistentHashRing.successor_owner`).  Failover
calls the same function: :meth:`ReplicationManager.fail_node` hands each
of the dead node's buckets to its successor owner, so a failed range
lands on the node holding its replicas.  The live cluster's
:class:`repro.live.replica.ReplicaManager` and ``fail_server`` use that
one function too, so sim and live agree on where every replica lands
and where every failed bucket goes (asserted by the parity tests in
``tests/test_replication_live.py``).

Replicas live outside the primary capacity accounting (a real deployment
would reserve headroom for them; the ``replica_headroom`` knob models
that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cachenode import CacheNode
from repro.core.elastic import ElasticCooperativeCache
from repro.core.record import CacheRecord


@dataclass
class ReplicationManager:
    """One-replica redundancy over an elastic cache.

    Usage: call :meth:`on_insert` for records as they are cached (or
    :meth:`sync` to bulk-refresh), and :meth:`recover_node_loss` when an
    instance disappears.

    Parameters
    ----------
    cache:
        The elastic cache being protected.
    """

    cache: ElasticCooperativeCache
    #: buddy-node replica stores: node_id -> {hkey: record}
    replicas: dict[str, dict[int, CacheRecord]] = field(default_factory=dict)
    recovered_records: int = 0

    def buddy_for_hkey(self, hkey: int) -> CacheNode | None:
        """The replica target for one record: the **ring successor** —
        owner of the first bucket circularly after the record's bucket
        that belongs to a different node.  ``None`` while one node owns
        the whole ring.  Matches the live cluster's placement rule."""
        ring = self.cache.ring
        return ring.successor_owner(ring.bucket_for_hkey(hkey))

    def on_insert(self, record: CacheRecord) -> None:
        """Replicate one freshly cached record to its buddy."""
        buddy = self.buddy_for_hkey(record.hkey)
        if buddy is None:
            return
        self.replicas.setdefault(buddy.node_id, {})[record.hkey] = record

    def sync(self) -> int:
        """Rebuild every replica store from current cache contents.

        Replica placement goes stale as migrations and splits move
        primaries between nodes; experiments call this at step
        boundaries (cheap — it walks records, not bytes over the
        network).  Returns records replicated.
        """
        self.replicas.clear()
        count = 0
        for node in self.cache.nodes:
            for _, rec in node.items():
                buddy = self.buddy_for_hkey(rec.hkey)
                if buddy is None:
                    continue
                self.replicas.setdefault(buddy.node_id, {})[rec.hkey] = rec
                count += 1
        return count

    def attach(self) -> None:
        """Hook the cache's allocator so replica placement tracks ring
        changes: every GBA split triggers a full re-:meth:`sync` (a
        split moves a range to a fresh node, which both invalidates old
        buddies for that range and makes the new node a buddy candidate
        for its ring predecessor)."""
        gba = getattr(self.cache, "gba", None)
        if gba is None:
            return
        gba.on_split = lambda event: self.sync()

    def replica_count(self) -> int:
        """Total replicated records."""
        return sum(len(s) for s in self.replicas.values())

    def fail_node(self, node: CacheNode) -> int:
        """Simulate losing ``node``: drop its primaries (and its replica
        store) without migration, and hand each of its buckets to the
        bucket's ring successor owner — its buddy.  Returns records lost
        from primaries."""
        ring = self.cache.ring
        heirs = [(pos, ring.successor_owner(pos))
                 for pos in ring.buckets_of(node)]
        if (len(self.cache.nodes) < 2
                or any(heir is None for _, heir in heirs)):
            raise RuntimeError("cannot fail the only node")
        lost = len(node)
        for hkey, _ in node.items():
            node.pop(hkey)
        for pos, heir in heirs:
            ring.reassign_bucket(pos, heir)
        self.cache.nodes.remove(node)
        self.cache.cloud.terminate(node.cloud_node)
        self.replicas.pop(node.node_id, None)
        return lost

    def recover_node_loss(self, failed_node_id: str) -> int:
        """Re-insert records whose replicas survive the failure.

        Walks every surviving replica store for records that are no longer
        reachable as primaries and re-caches them through the normal put
        path (so placement/accounting stay consistent).  Returns records
        recovered.
        """
        recovered = 0
        for store in list(self.replicas.values()):
            for hkey, rec in list(store.items()):
                owner: CacheNode = self.cache.ring.node_for_hkey(hkey)
                if hkey not in owner:
                    self.cache.put(rec.key, rec.value, rec.nbytes)
                    recovered += 1
        self.recovered_records += recovered
        return recovered
