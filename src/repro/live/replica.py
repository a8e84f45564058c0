"""Buddy replication for the live cluster (Sec. V–VI: transient
data availability under node loss).

The paper observes that DHT-style caches "do not focus on offering
transient data availability when a node disconnects" and names data
replication as the remedy.  The simulator grew that extension first
(:mod:`repro.extensions.replication`); this module brings the same
one-replica redundancy to the live TCP cluster.

Placement rule
--------------
Every bucket's records are mirrored on the bucket's **ring successor
owner** — the owner of the first bucket circularly after it that
references a different node (:meth:`repro.core.ring.ConsistentHashRing.
successor_owner`).  This is exactly the node a failover reassigns the
bucket to, so when a primary dies the interim owner *already holds* the
range's replica: reads fail over to warm copies instead of a recompute
storm.  Replicas live in the server's separate **replica namespace**
(the ``replica`` wire flag, sized by ``replica_headroom``), outside
primary capacity accounting.

Write path
----------
A replicated put is primary-then-buddy, serialized per key by a striped
lock pool.  Without that serialization two concurrent puts to one key
could commit in opposite orders at primary and replica, and a
post-crash buddy read would observe a superseded value — a stale read
the consistency checker rightly rejects.  A replica write that fails
after the primary acked surfaces as a plain
:class:`~repro.live.protocol.ProtocolError`, which the history recorder
classifies *unknown* (it may have applied): never a typed refusal,
because "refused" claims the write did not happen while the primary
already holds it.

Hinted handoff
--------------
While a primary is failed over, :meth:`ReplicaManager.claim_failed` has
registered the dead range's buddy as a read source (an entry in a
:class:`~repro.live.migration.RangeTable`), and every write routed to
the interim owner also leaves a replica-flagged **hint** on that same
buddy.  :meth:`ReplicaManager.drain` moves the hints home on
``restore_server`` with the same two-phase range move every migration
uses (:func:`~repro.live.migration.prepare_move` on the buddy's replica
namespace, then :func:`~repro.live.migration.finish_move` into the
restored primary) — conditional (``if_absent``) behind the interim
migration, so a hint can never clobber the newer value the outage
wrote.  A copy failure aborts the buddy's tokens and raises; the hints
stay, and a retried restore re-drains them.

Anti-entropy rebuild
--------------------
Ring changes (growth, contraction, restore — and, in the simulator, GBA
splits) move bucket boundaries, which moves buddies.
:meth:`ReplicaManager.rebuild_bucket` is the Merkle-free repair: sweep
the owner's primary range, overwrite the current buddy's replica copy
of it, and two-phase-extract stray replicas off every other node.  The
sweep-diff runs with the whole key-lock pool held so a concurrent
write's primary/replica pair cannot interleave with it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.live.migration import RangeTable, finish_move, prepare_move
from repro.live.protocol import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.client import LiveCacheClient, LiveClusterClient


class ReplicaManager:
    """Ring-successor buddy replication, owned by a
    :class:`~repro.live.client.LiveClusterClient` (``replication=True``).

    Tracks, per failed-over address, the replica read sources covering
    its ranges (``claim_failed`` → ``drain`` → ``release``), serializes
    primary/replica write pairs through a striped key-lock pool, and
    repairs replica placement after ring changes (``rebuild_bucket``).
    Its two counters, ``replica_hits`` and ``handoff_hints``, are
    guarded by ``_stats``.
    """

    LOCK_STRIPES = 64

    def __init__(self, cluster: "LiveClusterClient") -> None:
        self.cluster = cluster
        self._locks = [threading.Lock() for _ in range(self.LOCK_STRIPES)]
        #: every claim as a ``(lo, hi, buddy_client)`` range entry
        self._ranges = RangeTable()
        #: per failed address: its entries in ``_ranges``
        self._claims: dict[tuple[str, int], list[tuple]] = {}
        self._stats = threading.Lock()
        self.replica_hits = 0
        self.handoff_hints = 0       #: hints queued since the last drain

    # ------------------------------------------------------------ locking

    def _lock_for(self, key: int) -> threading.Lock:
        return self._locks[hash(key) % self.LOCK_STRIPES]

    @contextmanager
    def key_lock(self, key: int):
        """Serialize this key's primary+replica write pair."""
        with self._lock_for(key):
            yield

    @contextmanager
    def key_locks(self, keys):
        """Batch form: the pool locks of ``keys``, in index order (a global
        acquisition order, so batches cannot deadlock each other)."""
        indices = sorted({hash(k) % self.LOCK_STRIPES for k in keys})
        for i in indices:
            self._locks[i].acquire()
        try:
            yield
        finally:
            for i in reversed(indices):
                self._locks[i].release()

    @contextmanager
    def _all_locks(self):
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()

    # ---------------------------------------------------------- placement

    def buddy_address(self, key: int):
        """Where ``key``'s replica lives under the current ring (or
        ``None`` on a single-owner ring)."""
        ring = self.cluster.ring
        bucket = ring.bucket_for_hkey(ring.hash_key(key))
        return ring.successor_owner(bucket)

    # ---------------------------------------------------------- write path

    def replicate(self, key: int, value: bytes,
                  deadline_ms: float | None = None,
                  priority: str | None = None) -> None:
        """Mirror one acked primary write.  Caller holds the key lock.

        Keys inside a failed-over range hint to the range's claimed
        buddy (the failure-time replica holder, drained on restore);
        everything else follows the steady-state successor rule.
        """
        ring = self.cluster.ring
        client = self._ranges.lookup(ring.hash_key(key))
        hinted = client is not None
        if client is None:
            addr = self.buddy_address(key)
            if addr is None:
                return  # single-owner ring: nowhere distinct to mirror
            client = self.cluster.clients.get(addr)
            if client is None:
                # Buddy failed over between routing and here; the next
                # rebuild re-places this range.
                return
        try:
            client.put(key, value, deadline_ms=deadline_ms,
                       priority=priority, replica=True)
        except (ProtocolError, OSError) as exc:
            # The primary already acked: this write *happened*, so it
            # must never surface as a typed refusal ("definitely not
            # applied").  A plain ProtocolError is classified unknown.
            raise ProtocolError(f"replica write failed: {exc}") from exc
        if hinted:
            with self._stats:
                self.handoff_hints += 1

    def replicate_many(self, items: list[tuple[int, bytes]],
                       deadline_ms: float | None = None,
                       priority: str | None = None) -> list[int]:
        """Mirror a batch of acked primary writes (caller holds the
        batch's key locks), one fan-out over the buddies.  Returns the
        keys whose replica landed; a failed group's keys are simply not
        listed — the cluster demotes them from its acked count, so the
        caller sees the batch as partially applied (conservative, never
        falsely refused)."""
        ring = self.cluster.ring
        groups: dict["LiveCacheClient", list] = {}
        hinted: set[int] = set()
        ok: list[int] = []
        for key, value in items:
            client = self._ranges.lookup(ring.hash_key(key))
            if client is not None:
                hinted.add(key)
            else:
                addr = self.buddy_address(key)
                if addr is None:
                    ok.append(key)  # nowhere to mirror ≡ mirrored
                    continue
                client = self.cluster.clients.get(addr)
                if client is None:
                    continue
            groups.setdefault(client, []).append((key, value))
        for result in self.cluster._put_groups(groups, deadline_ms,
                                               priority, replica=True):
            ok.extend(result.stored)
            if hinted:
                with self._stats:
                    self.handoff_hints += sum(1 for k in result.stored
                                              if k in hinted)
        return ok

    def forget(self, key: int, deadline_ms: float | None = None) -> None:
        """Best-effort replica delete (eviction path).  Caller holds the
        key lock.  A leaked copy only ever re-serves the key's last
        written value — consistent, just not yet evicted."""
        ring = self.cluster.ring
        client = self._ranges.lookup(ring.hash_key(key))
        if client is None:
            addr = self.buddy_address(key)
            client = self.cluster.clients.get(addr) if addr else None
        if client is None:
            return
        try:
            client.delete(key, deadline_ms=deadline_ms, replica=True)
        except (ProtocolError, OSError):
            pass

    # ----------------------------------------------------------- read path

    def read(self, key: int, deadline_ms: float | None = None,
             priority: str | None = None) -> bytes | None:
        """Consult the claimed buddy for a key in a failed-over range.

        Returns ``None`` when no claim covers the key or the buddy has
        no copy.  Errors propagate: the caller's read fails rather than
        reporting a miss it cannot prove.
        """
        client = self._ranges.lookup(self.cluster.ring.hash_key(key))
        if client is None:
            return None
        value = client.get(key, deadline_ms=deadline_ms,
                           priority=priority, replica=True)
        if value is not None:
            with self._stats:
                self.replica_hits += 1
        return value

    def fill_from_replicas(self, keys, found: dict,
                           deadline_ms: float | None = None,
                           priority: str | None = None) -> None:
        """Batch read path: resolve residual misses through claimed
        buddies, one fan-out over them.  A failed buddy degrades to
        misses for its keys (counted on the cluster's
        ``batch_shard_failures``, so batch consumers know the misses are
        unproven)."""
        ring = self.cluster.ring
        by_src: dict["LiveCacheClient", list[int]] = {}
        for key in keys:
            if key in found:
                continue
            client = self._ranges.lookup(ring.hash_key(key))
            if client is not None:
                by_src.setdefault(client, []).append(key)
        part = self.cluster._fetch_many(by_src, deadline_ms, priority,
                                        replica=True)
        found.update(part)
        if part:
            with self._stats:
                self.replica_hits += len(part)

    def degraded_read(self, key: int,
                      deadline_ms: float | None = None) -> bytes | None:
        """The coordinator's pre-recompute consult: claimed buddy if a
        failover already registered one, else the live buddy directly
        (the primary may be unreachable before the detector has failed
        it over).  Swallows errors — the caller's fallback is a
        recompute, which is always safe."""
        try:
            value = self.read(key, deadline_ms=deadline_ms)
        except (ProtocolError, OSError):
            value = None
        if value is not None:
            return value
        addr = self.buddy_address(key)
        client = self.cluster.clients.get(addr) if addr else None
        if client is None:
            return None
        try:
            value = client.get(key, deadline_ms=deadline_ms, replica=True)
        except (ProtocolError, OSError):
            return None
        if value is not None:
            with self._stats:
                self.replica_hits += 1
        return value

    # ----------------------------------------------------- failure claims

    def claim_failed(self, address, seg_map: dict[int, list]
                     ) -> tuple[list, list]:
        """Take over a dying server's range map *before* the cluster
        writes anything off.  ``seg_map`` maps each of the dead node's
        buckets to its segments.

        Every segment whose bucket has a live successor owner (the
        steady-state buddy, holding its replica) is **covered**:
        registered as a replica read source and as the hint target for
        writes into the range.  Only the remainder — nothing distinct
        ever replicated it — is left for the caller to write off.
        Returns ``(covered, uncovered)`` segment lists.
        """
        ring = self.cluster.ring
        covered: list = []
        uncovered: list = []
        claims: list[tuple] = []
        for bucket, segments in seg_map.items():
            buddy = ring.successor_owner(bucket)
            client = self.cluster.clients.get(buddy) if buddy else None
            if client is None:
                uncovered.extend(segments)
                continue
            covered.extend(segments)
            claims.extend((lo, hi, client) for lo, hi in segments)
        if claims:
            self._claims.setdefault(tuple(address), []).extend(
                self._ranges.add(claims))
        return covered, uncovered

    def drain(self, address, home: "LiveCacheClient"
              ) -> list[tuple[int, bytes]]:
        """Drain the hinted-handoff queue for a restored address: every
        claimed range is moved from its buddy's replica namespace back
        into ``home``'s primary namespace, one two-phase range move per
        claim.  Returns the records ``home`` newly stored (keys it
        already held are newer, brought home by the interim migration);
        the claims stay registered (reads must keep working if the drain
        dies part-way) — the caller drops them via :meth:`release`."""
        drained: list[tuple[int, bytes]] = []
        for lo, hi, src in self._claims.get(tuple(address), []):
            drained += finish_move(
                prepare_move(src, [(lo, hi)], replica=True), home)
        with self._stats:
            self.handoff_hints = 0
        return drained

    def release(self, address) -> None:
        """Drop a restored address's claims (after a successful drain)."""
        self._ranges.drop(self._claims.pop(tuple(address), []))

    @property
    def handoff_depth(self) -> int:
        """Hints queued on buddies, awaiting a restore drain."""
        with self._stats:
            return self.handoff_hints

    # ------------------------------------------------------- anti-entropy

    def rebuild_bucket(self, bucket: int) -> int:
        """Anti-entropy for one bucket: make replica placement match the
        current ring.  Sweeps the owner's primary range, *overwrites*
        the successor owner's replica copy of it (an ``if_absent`` copy
        would preserve stale values a ring change stranded), and
        two-phase-extracts stray replicas off every other node.  Runs
        with the whole key-lock pool held so no concurrent write pair
        can interleave with the sweep-then-copy.  Returns records
        re-placed; failures are swallowed, never raised — a replica
        hiccup must not fail the topology change that triggered it.
        """
        ring = self.cluster.ring
        if bucket not in ring.node_map:
            return 0
        owner = ring.node_map[bucket]
        owner_client = self.cluster.clients.get(owner)
        buddy = ring.successor_owner(bucket)
        buddy_client = self.cluster.clients.get(buddy) if buddy else None
        if owner_client is None or buddy_client is None:
            return 0
        placed = 0
        with self._all_locks():
            for lo, hi in ring.interval_segments(bucket):
                try:
                    records = owner_client.sweep(lo, hi)
                    if records:
                        result = buddy_client.multi_put(records,
                                                        replica=True)
                        if result.error is not None:
                            raise result.error
                        placed += len(records)
                    for addr, other in list(self.cluster.clients.items()):
                        if other is buddy_client or addr == owner:
                            continue
                        other.extract(lo, hi, replica=True)
                except (ProtocolError, OSError):
                    pass  # never fail the ring change that called us
        return placed

    def rebuild_touching(self, positions) -> int:
        """Rebuild every bucket whose buddy a ring change at
        ``positions`` may have moved: the bucket covering each position
        *and* its ring predecessor (whose successor owner — its buddy —
        is exactly what an insertion or removal there changes)."""
        ring = self.cluster.ring
        affected: list[int] = []
        for pos in positions:
            bucket = ring.bucket_for_hkey(pos)
            for b in (bucket, ring.predecessor_bucket(bucket)):
                if b not in affected:
                    affected.append(b)
        return sum(self.rebuild_bucket(b) for b in affected)
