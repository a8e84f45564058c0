"""Greedy Bucket Allocation — Algorithms 1 and 2 of the paper.

``GBA-insert(k, v)``: hash to the responsible node; insert directly if it
fits; otherwise **split the fullest bucket referencing that node** at its
median key and sweep-migrate the lower half to the least-loaded cooperating
node — allocating a brand-new cloud node *only as a last resort* ("node
allocation is a last-resort option to save cost").  The insert then retries
under the modified structure (the paper's tail recursion, a bounded loop
here).

``sweep-migrate(k_start, k_end)``: pick ``argmin ||n||`` as destination (or
``nodeAlloc()`` if the stolen keys would overflow it), then walk the
B+-tree's linked leaves from ``k_start`` to ``k_end`` transferring every
record.

Timing faithfulness: migrations advance the virtual clock by
``T_net``-proportional transfer time, and allocations by the provider's
boot latency — the two components of Fig. 4's node-splitting overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cloud.network import NetworkModel
from repro.core.cachenode import CacheNode, CapacityError
from repro.core.config import CacheConfig
from repro.core.record import CacheRecord
from repro.core.ring import ConsistentHashRing, RingError
from repro.sim.clock import SimClock


def fullest_bucket(ring: ConsistentHashRing, node: CacheNode) -> int:
    """Alg. 1 line 10: ``argmax_{b_i} ||b_i||`` with ``NodeMap[b_i] = n``.

    ``||b_i||`` is summed from the node's store over the bucket's
    interval.  Ties break toward the lowest position, deterministically.
    """
    positions = ring.buckets_of(node)
    if not positions:
        raise RingError(f"node {node!r} owns no buckets")
    return max(positions, key=lambda b: (
        sum(node.bytes_in(lo, hi) for lo, hi in ring.interval_segments(b)), -b))


@dataclass(frozen=True)
class SplitEvent:
    """One overflow-triggered split (the unit of Fig. 4).

    ``allocation_s`` is zero when the greedy path reused an existing node;
    otherwise it is the synchronous boot latency paid inline.
    """

    step: int
    time: float
    src_id: str
    dest_id: str
    bucket: int
    new_bucket: int | None  #: None when the whole bucket was reassigned
    records_moved: int
    bytes_moved: int
    migration_s: float
    allocation_s: float

    @property
    def allocated(self) -> bool:
        """Whether this split had to provision a new cloud node."""
        return self.allocation_s > 0.0

    @property
    def overhead_s(self) -> float:
        """Total split overhead: allocation + data movement (Fig. 4's y-axis)."""
        return self.allocation_s + self.migration_s


class GreedyBucketAllocator:
    """Executes GBA-insert against a ring + node population.

    Parameters
    ----------
    ring:
        The shared :class:`~repro.core.ring.ConsistentHashRing`.
    clock, network:
        Virtual time and the ``T_net`` model.
    config:
        Structural knobs (greediness, retry bound).
    allocate_node:
        Callback provisioning a fresh :class:`CacheNode` (blocking; the
        clock advances by the boot latency inside).  Supplied by
        :class:`~repro.core.elastic.ElasticCooperativeCache`, or by the
        warm-pool extension to make allocation near-instant.
    live_nodes:
        Callback returning the current cooperative node population ``N``.
    """

    def __init__(
        self,
        *,
        ring: ConsistentHashRing,
        clock: SimClock,
        network: NetworkModel,
        config: CacheConfig,
        allocate_node: Callable[[], CacheNode],
        live_nodes: Callable[[], list[CacheNode]],
    ) -> None:
        self.ring = ring
        self.clock = clock
        self.network = network
        self.config = config
        self.allocate_node = allocate_node
        self.live_nodes = live_nodes
        self.split_events: list[SplitEvent] = []
        #: optional observer invoked with each :class:`SplitEvent` right
        #: after it lands — replication layers hook this to re-place
        #: buddies when a split changes ring ownership
        self.on_split: Callable[[SplitEvent], None] | None = None

    # ------------------------------------------------------------- insert

    def insert(self, record: CacheRecord) -> list[SplitEvent]:
        """Algorithm 1.  Returns the splits this insert triggered (if any).

        An existing record at the same ``hkey`` is replaced: the node's
        store refunds its bytes before checking the fit.
        """
        events: list[SplitEvent] = []
        for _ in range(self.config.max_insert_retries):
            node: CacheNode = self.ring.node_for_hkey(record.hkey)
            if node.put(record.hkey, record) is not None:
                return events
            # Line 7: n overflows — split and retry under the new structure.
            events.append(self._split(node, pending=record))
        raise CapacityError(
            f"record of {record.nbytes} B failed to place after "
            f"{self.config.max_insert_retries} splits"
        )

    # -------------------------------------------------------------- split

    def _split(self, node: CacheNode, pending: CacheRecord | None = None) -> SplitEvent:
        """Split ``node``'s fullest bucket; migrate the lower half away.

        ``pending`` is the record whose insert triggered the overflow (if
        any): when the migrated interval will own its hash position, the
        destination must have room for it *too*, or the retry just moves
        the full bucket somewhere equally full (a ping-pong hypothesis
        found with single-record buckets on 75 %-full nodes).
        """
        b_max = fullest_bucket(self.ring, node)
        segments = self.ring.interval_segments(b_max)

        counts = [node.count_in(lo, hi) for lo, hi in segments]
        total = sum(counts)
        if total == 0:
            raise CapacityError(
                f"{node.node_id} overflows with an empty fullest bucket: "
                "record larger than node capacity"
            )

        # k^μ: the median of the bucket's records in hash order; we move
        # [min(b_max), k^μ] — "approximately half the keys ... from the
        # lowest key to the median".
        k = (total + 1) // 2 - 1
        for (lo, hi), count in zip(segments, counts):
            if k < count:
                split_hkey = node.kth_key(lo, hi, k)
                break
            k -= count

        # Phase 1 (prepare): snapshot the victim set *without* mutating —
        # this is the sim mirror of the live protocol's extract_prepare
        # (records retained at the source until the copy lands).  It also
        # means destination selection, the only step that can fail
        # (quota, capacity), runs against an unmodified cache.
        degenerate = split_hkey == b_max
        preview: list[CacheRecord] = []
        pending_follows = False
        for lo, hi in segments:
            covers_split = not degenerate and lo <= split_hkey <= hi
            seg_hi = split_hkey if covers_split else hi
            preview.extend(rec for _, rec in node.sweep(lo, seg_hi))
            if pending is not None and lo <= pending.hkey <= seg_hi:
                pending_follows = True
            if covers_split:
                break
        required = sum(r.nbytes for r in preview)
        # Non-degenerate splits always change the bucket structure, so
        # retries make progress even if the destination later splits too.
        # A degenerate whole-bucket reassign changes nothing structural —
        # if the destination can't also hold the pending record, the full
        # bucket just ping-pongs between equally full nodes forever.
        if degenerate and pending_follows:
            required += pending.nbytes
        dest, alloc_s = self._choose_destination(node, required)

        # Phase 2 (copy): the snapshot *is* the victim set — stream it to
        # the destination while the source still holds every record.  A
        # crash between here and the commit below leaves duplicates
        # (resolved idempotently: derived results overwrite in place),
        # never loss — the same invariant the live cluster's two-phase
        # extract_prepare/extract_commit migration provides.
        victims: list[CacheRecord] = preview
        bytes_moved = sum(r.nbytes for r in victims)
        migration_s = self.network.transfer_time(bytes_moved, len(victims))
        self.clock.advance(migration_s)
        for rec in victims:
            dest.insert(rec)

        # Phase 3 (commit): flip routing to the destination, then delete
        # the source copies.
        if degenerate:
            # Degenerate split (single-record bucket at the bucket position):
            # reassign the entire bucket instead of inserting a duplicate.
            self.ring.reassign_bucket(b_max, dest)
            new_bucket: int | None = None
        else:
            new_bucket = split_hkey
            self.ring.add_bucket(new_bucket, dest)
        for rec in victims:
            node.pop(rec.hkey)

        event = SplitEvent(
            step=self.clock.step,
            time=self.clock.now,
            src_id=node.node_id,
            dest_id=dest.node_id,
            bucket=b_max,
            new_bucket=new_bucket,
            records_moved=len(victims),
            bytes_moved=bytes_moved,
            migration_s=migration_s,
            allocation_s=alloc_s,
        )
        self.split_events.append(event)
        if self.on_split is not None:
            self.on_split(event)
        return event

    def _choose_destination(
        self, src: CacheNode, nbytes: int
    ) -> tuple[CacheNode, float]:
        """Algorithm 2 lines 1-5: greedy least-loaded node, else allocate.

        Returns ``(destination, allocation_seconds)``.
        """
        if self.config.greedy:
            candidates = [n for n in self.live_nodes() if n is not src]
            if candidates:
                dest = min(candidates, key=lambda n: (n.used_bytes, n.node_id))
                if dest.fits(nbytes):
                    return dest, 0.0
        t0 = self.clock.now
        dest = self.allocate_node()
        alloc_s = self.clock.now - t0
        if not dest.fits(nbytes):
            raise CapacityError(
                f"freshly allocated {dest.node_id} ({dest.capacity_bytes} B) "
                f"cannot hold {nbytes} B migration"
            )
        return dest, alloc_s
