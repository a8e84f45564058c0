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
registered the dead range's buddy as a read source, and every write
routed to the interim owner also leaves a replica-flagged **hint** on
that same buddy.  :meth:`ReplicaManager.drain` moves the hints home on
``restore_server`` via the two-phase extract family — conditional
(``if_absent``) behind the interim migration, so a hint can never
clobber the newer value the outage wrote.

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

from repro.live.protocol import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.client import LiveCacheClient, LiveClusterClient


def drain_replica_range(src: "LiveCacheClient", dst: "LiveCacheClient",
                        lo: int, hi: int) -> list[tuple[int, bytes]]:
    """Move one hinted-handoff range home, loss-proof.

    Two-phase: snapshot the source's *replica* namespace under a
    transfer token (records retained), conditionally copy into the
    destination's *primary* namespace (``if_absent`` — a value the
    restore migration already brought home is newer than any hint and
    must win), and only then commit the token, deleting the hints.

    Crash analysis, phase by phase (the property test walks these):
    after prepare — the lease expires, hints stay, a re-drain re-reads;
    mid-copy — the applied prefix is idempotent under replay, the
    source keeps everything; before commit — duplicates at worst (the
    copy is conditional); after commit — done.  No phase can lose an
    acked record.

    Returns the records the destination newly stored (keys it skipped
    were already brought home, newer, by the interim migration — their
    accounting is done).
    """
    token, records = src.extract_prepare(lo, hi, replica=True)
    stored: list[tuple[int, bytes]] = []
    if records:
        result = dst.multi_put(records, if_absent=True)
        if result.error is not None:
            # The destination refused part of the copy: leave the
            # prepare to lease-expire (records retained at the source)
            # and report — a retried drain starts clean.
            try:
                src.extract_abort(token, replica=True)
            except (ProtocolError, OSError):
                pass
            raise result.error
        landed = set(result.stored)
        stored = [(k, v) for k, v in records if k in landed]
    src.extract_commit(token, replica=True)
    return stored


class ReplicaManager:
    """Ring-successor buddy replication, owned by a
    :class:`~repro.live.client.LiveClusterClient` (``replication=True``).

    Tracks, per failed-over address, the replica read sources covering
    its ranges (``claim_failed`` → ``drain`` → ``release``), serializes
    primary/replica write pairs through a striped key-lock pool, and
    repairs replica placement after ring changes (``rebuild_bucket``).
    All counters are best-effort diagnostics, guarded by ``_stats``.
    """

    LOCK_STRIPES = 64

    def __init__(self, cluster: "LiveClusterClient") -> None:
        self.cluster = cluster
        self._locks = [threading.Lock() for _ in range(self.LOCK_STRIPES)]
        #: per failed address: list of ``(lo, hi, buddy_client)`` claims
        self._claims: dict[tuple[str, int], list[tuple]] = {}
        #: flattened claims for per-key lookup, replaced wholesale
        self._spans: tuple = ()
        self._spans_lock = threading.Lock()
        self._stats = threading.Lock()
        self.replica_writes = 0
        self.replica_write_failures = 0
        self.replica_hits = 0
        self.handoff_hints = 0       #: hints queued since the last drain
        self.handoff_peak = 0        #: high-water mark of the hint queue
        self.drained_records = 0
        self.rebuild_bytes = 0
        self.rebuilt_records = 0
        self.rebuild_failures = 0

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

    def _span_for(self, hkey: int):
        for lo, hi, client in self._spans:
            if lo <= hkey <= hi:
                return client
        return None

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
        client = self._span_for(ring.hash_key(key))
        hinted = client is not None
        if client is None:
            addr = self.buddy_address(key)
            if addr is None:
                return  # single-owner ring: nowhere distinct to mirror
            client = self.cluster.clients.get(addr)
            if client is None:
                # Buddy failed over between routing and here; the next
                # rebuild re-places this range.
                with self._stats:
                    self.replica_write_failures += 1
                return
        try:
            client.put(key, value, deadline_ms=deadline_ms,
                       priority=priority, replica=True)
        except (ProtocolError, OSError) as exc:
            with self._stats:
                self.replica_write_failures += 1
            # The primary already acked: this write *happened*, so it
            # must never surface as a typed refusal ("definitely not
            # applied").  A plain ProtocolError is classified unknown.
            raise ProtocolError(f"replica write failed: {exc}") from exc
        with self._stats:
            self.replica_writes += 1
            if hinted:
                self.handoff_hints += 1
                self.handoff_peak = max(self.handoff_peak,
                                        self.handoff_hints)

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
            client = self._span_for(ring.hash_key(key))
            if client is not None:
                hinted.add(key)
            else:
                addr = self.buddy_address(key)
                if addr is None:
                    ok.append(key)  # nowhere to mirror ≡ mirrored
                    continue
                client = self.cluster.clients.get(addr)
                if client is None:
                    with self._stats:
                        self.replica_write_failures += 1
                    continue
            groups.setdefault(client, []).append((key, value))
        for _, result in self.cluster._put_groups(groups, deadline_ms,
                                                  priority, replica=True):
            ok.extend(result.stored)
            with self._stats:
                self.replica_writes += len(result.stored)
                if result.error is not None:
                    self.replica_write_failures += 1
                if hinted:
                    self.handoff_hints += sum(1 for k in result.stored
                                              if k in hinted)
                    self.handoff_peak = max(self.handoff_peak,
                                            self.handoff_hints)
        return ok

    def forget(self, key: int, deadline_ms: float | None = None) -> None:
        """Best-effort replica delete (eviction path).  Caller holds the
        key lock.  A leaked copy only ever re-serves the key's last
        written value — consistent, just not yet evicted."""
        ring = self.cluster.ring
        client = self._span_for(ring.hash_key(key))
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
        client = self._span_for(self.cluster.ring.hash_key(key))
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
            client = self._span_for(ring.hash_key(key))
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
            existing = self._claims.setdefault(tuple(address), [])
            existing.extend(claims)
            with self._spans_lock:
                self._spans = self._spans + tuple(claims)
        return covered, uncovered

    def drain(self, address, home: "LiveCacheClient"
              ) -> list[tuple[int, bytes]]:
        """Drain the hinted-handoff queue for a restored address: every
        claimed range is moved from its buddy's replica namespace back
        into ``home``'s primary namespace (see
        :func:`drain_replica_range`).  Returns the drained records; the
        claims stay registered (reads must keep working if the drain
        dies part-way) — the caller drops them via :meth:`release`."""
        drained: list[tuple[int, bytes]] = []
        for lo, hi, src in self._claims.get(tuple(address), []):
            drained.extend(drain_replica_range(src, home, lo, hi))
        with self._stats:
            self.drained_records += len(drained)
            self.handoff_hints = 0
        return drained

    def release(self, address) -> None:
        """Drop a restored address's claims (after a successful drain)."""
        claims = self._claims.pop(tuple(address), [])
        dead = {id(c) for c in claims}
        with self._spans_lock:
            self._spans = tuple(s for s in self._spans
                                if id(s) not in dead)

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
        re-placed; failures are counted, never raised — a replica
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
                        with self._stats:
                            self.rebuilt_records += len(records)
                            self.rebuild_bytes += sum(
                                len(v) for _, v in records)
                    for addr, other in list(self.cluster.clients.items()):
                        if other is buddy_client or addr == owner:
                            continue
                        other.extract(lo, hi, replica=True)
                except (ProtocolError, OSError):
                    with self._stats:
                        self.rebuild_failures += 1
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

    # --------------------------------------------------------- diagnostics

    def snapshot(self) -> dict:
        """Counter snapshot (consistent under the stats lock)."""
        with self._stats:
            return {
                "replica_writes": self.replica_writes,
                "replica_write_failures": self.replica_write_failures,
                "replica_hits": self.replica_hits,
                "handoff_depth": self.handoff_hints,
                "handoff_peak": self.handoff_peak,
                "drained_records": self.drained_records,
                "rebuild_bytes": self.rebuild_bytes,
                "rebuilt_records": self.rebuilt_records,
                "rebuild_failures": self.rebuild_failures,
                "claimed_ranges": sum(len(c) for c in
                                      self._claims.values()),
            }
