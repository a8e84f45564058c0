"""Cache contraction — the ε-periodic node-merge heuristic (Sec. III-B).

"After each interval of ε slice expirations, we identify the two least
loaded nodes and check whether merging their data would cause an overflow.
If not, then their data is migrated using methods tantamount to
Algorithm 2" — and the emptied instance is released, which is where the
Cloud's cost incentive pays out.

Churn avoidance: the merge only proceeds if the coalesced data fits within
``merge_threshold`` (the paper's 65 %) of the destination's capacity, so a
merge is never immediately undone by the next overflow split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cloud.network import NetworkModel
from repro.core.cachenode import CacheNode
from repro.core.config import ContractionConfig
from repro.core.ring import ConsistentHashRing
from repro.sim.clock import SimClock


@dataclass(frozen=True)
class MergeEvent:
    """One completed node merge (source drained into destination)."""

    step: int
    time: float
    src_id: str
    dest_id: str
    records_moved: int
    bytes_moved: int
    migration_s: float


class Contractor:
    """Merges lightly loaded nodes and releases the surplus instance.

    Parameters
    ----------
    ring, clock, network, config:
        Shared cache machinery; see :class:`~repro.core.gba.GreedyBucketAllocator`.
    live_nodes:
        Callback returning the current node population ``N``.
    release_node:
        Callback that unregisters a drained :class:`CacheNode` and
        terminates its instance (supplied by the elastic cache).
    """

    def __init__(
        self,
        *,
        ring: ConsistentHashRing,
        clock: SimClock,
        network: NetworkModel,
        config: ContractionConfig,
        live_nodes: Callable[[], list[CacheNode]],
        release_node: Callable[[CacheNode], None],
    ) -> None:
        self.ring = ring
        self.clock = clock
        self.network = network
        self.config = config
        self.live_nodes = live_nodes
        self.release_node = release_node
        self.merge_events: list[MergeEvent] = []
        self._expirations_seen = 0

    def on_slice_expired(self) -> MergeEvent | None:
        """Count a slice expiry; attempt contraction every ε expirations."""
        if not self.config.enabled:
            return None
        self._expirations_seen += 1
        if self._expirations_seen % self.config.epsilon_slices != 0:
            return None
        return self.try_contract()

    def try_contract(self) -> MergeEvent | None:
        """One contraction attempt.  Returns the merge, or ``None``.

        Identifying the two least-loaded nodes is the paper's O(1) step
        (they keep a load-sorted list; we pay an O(|N|) min over the tiny
        node population).  The merge itself is a whole-node sweep-migrate.
        """
        nodes = self.live_nodes()
        if len(nodes) <= max(1, self.config.min_nodes):
            return None

        by_load = sorted(nodes, key=lambda n: (n.used_bytes, n.node_id))
        src, dest = by_load[0], by_load[1]

        merged = src.used_bytes + dest.used_bytes
        if merged > self.config.merge_threshold * dest.capacity_bytes:
            return None  # would defeat churn avoidance

        return self._merge(src, dest)

    def _merge(self, src: CacheNode, dest: CacheNode) -> MergeEvent:
        """Drain ``src`` into ``dest``, repoint its buckets, release it."""
        records = [rec for _, rec in src.items()]
        bytes_moved = src.used_bytes

        migration_s = self.network.transfer_time(bytes_moved, len(records))
        self.clock.advance(migration_s)

        for rec in records:
            src.pop(rec.hkey)
            dest.insert(rec)
        for pos in self.ring.buckets_of(src):
            self.ring.reassign_bucket(pos, dest)

        event = MergeEvent(
            step=self.clock.step,
            time=self.clock.now,
            src_id=src.node_id,
            dest_id=dest.node_id,
            records_moved=len(records),
            bytes_moved=bytes_moved,
            migration_s=migration_s,
        )
        self.merge_events.append(event)
        self.release_node(src)
        return event
