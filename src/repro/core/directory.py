"""A CRISP-style directory-mapped cooperative cache (related-work baseline).

Sec. V: "Gadde, Chase, and Rabovich's CRISP proxy utilizes a centralized
directory service to track the exact locations of cached data.  This
simplicity comes at the cost of scalability."

This baseline makes that comparison concrete: placement is
least-loaded-first and a central ``directory`` dict maps every key to its
node.  Two scalability costs follow, both modeled here:

* every lookup pays an extra **directory hop** (an RPC to the directory
  service before the data node can be contacted) — charged by the
  coordinator through :meth:`lookup_overhead_s`;
* directory state grows with the *record* population, not the node
  population — ``metadata_bytes`` exposes the footprint that the
  consistent-hash ring avoids (its state is ``O(buckets)``).

Elasticity is trivial for a directory (new nodes simply start receiving
placements; nothing moves), which is also measurable: compare
:meth:`add_node` with GBA's migration-on-growth.  What a directory cannot
do is *find* data without itself being available and consistent — the
single point the paper's design avoids.
"""

from __future__ import annotations

from repro.cloud.instance import InstanceType
from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.cachenode import CacheNode, CapacityError
from repro.core.config import CacheConfig
from repro.core.lru import LRUTracker
from repro.core.record import CacheRecord

#: Approximate directory entry footprint: key + node id + dict overhead.
DIRECTORY_ENTRY_BYTES = 64


class DirectoryCache:
    """Cooperative cache with centralized exact-location directory.

    Presents the same surface as the other caches so the coordinator and
    harness can drive it unchanged.

    Parameters
    ----------
    n_nodes:
        Initial fleet; grows via :meth:`add_node` or automatically when
        every node is full (``elastic=True``).
    elastic:
        Allocate a new node when an insert finds the whole fleet full
        (directory placement makes growth migration-free).
    """

    def __init__(
        self,
        *,
        cloud: SimulatedCloud,
        network: NetworkModel,
        config: CacheConfig,
        n_nodes: int = 1,
        elastic: bool = True,
        itype: InstanceType | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.cloud = cloud
        self.network = network
        self.clock = cloud.clock
        self.config = config
        self.elastic = elastic
        self.itype = itype or cloud.default_itype
        self.nodes: list[CacheNode] = []
        self.lru = LRUTracker()  #: global LRU over hkeys
        self.directory: dict[int, CacheNode] = {}  #: key -> owning node
        self.lru_evictions = 0
        for _ in range(n_nodes):
            self.add_node()

    # --------------------------------------------------------------- fleet

    def add_node(self) -> CacheNode:
        """Provision one more cache node (no data moves — the directory
        simply starts placing onto it)."""
        cloud_node = self.cloud.allocate(self.itype, block=True)
        capacity = self.config.node_capacity_bytes or self.itype.usable_bytes
        node = CacheNode(cloud_node, capacity)
        self.nodes.append(node)
        return node

    # ----------------------------------------------------------- data path

    def lookup_overhead_s(self) -> float:
        """The extra directory-service hop every access pays."""
        return self.network.rpc_time(request_bytes=64, reply_bytes=64)

    def get(self, key: int) -> CacheRecord | None:
        """Directory lookup, then the data node."""
        node = self.directory.get(key)
        if node is None:
            return None
        record = node.get(key)
        if record is not None:
            self.lru.touch(key)
        return record

    def put(self, key: int, value, nbytes: int) -> list:
        """Place on the least-loaded node with room; evict LRU if none.

        Returns an empty list (no split events) for harness symmetry.
        """
        existing = self.directory.get(key)
        if existing is not None:
            existing.pop(key)
            self.lru.discard(key)
            del self.directory[key]

        if nbytes > max(n.capacity_bytes for n in self.nodes):
            raise CapacityError(f"record of {nbytes} B exceeds every node")

        node = min(self.nodes, key=lambda n: (n.used_bytes, n.node_id))
        if not node.fits(nbytes):
            if self.elastic:
                node = self.add_node()
            else:
                while not node.fits(nbytes):
                    victim_key = self.lru.pop_victim()
                    owner = self.directory.pop(victim_key)
                    owner.pop(victim_key)
                    self.lru_evictions += 1
                    node = min(self.nodes,
                               key=lambda n: (n.used_bytes, n.node_id))

        node.insert(CacheRecord(key=key, hkey=key, value=value, nbytes=nbytes))
        self.directory[key] = node
        self.lru.touch(key)
        return []

    def evict_keys(self, keys) -> int:
        """Delete the given keys; returns count removed."""
        removed = 0
        for key in keys:
            node = self.directory.pop(key, None)
            if node is None:
                continue
            node.pop(key)
            self.lru.discard(key)
            removed += 1
        return removed

    # -------------------------------------------------------- stream hooks

    def record_query(self, key: int) -> None:
        """No interest window in this baseline."""

    def end_time_slice(self) -> tuple[None, int, None]:
        """No slice semantics in this baseline."""
        return None, 0, None

    # ------------------------------------------------------------- queries

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    @property
    def node_count(self) -> int:
        """Current fleet size."""
        return len(self.nodes)

    @property
    def used_bytes(self) -> int:
        """Total cached bytes."""
        return sum(n.used_bytes for n in self.nodes)

    @property
    def capacity_bytes(self) -> int:
        """Total capacity."""
        return sum(n.capacity_bytes for n in self.nodes)

    @property
    def record_count(self) -> int:
        """Total cached records (== directory entries)."""
        return len(self.directory)

    @property
    def metadata_bytes(self) -> int:
        """Directory-service state: one entry per cached record.

        The consistent-hash ring's equivalent is ``O(p)`` bucket entries —
        independent of the record population.
        """
        return len(self.directory) * DIRECTORY_ENTRY_BYTES

    def stats(self) -> dict:
        """Flat state snapshot."""
        return {
            "nodes": self.node_count,
            "records": self.record_count,
            "used_bytes": self.used_bytes,
            "capacity_bytes": self.capacity_bytes,
            "metadata_bytes": self.metadata_bytes,
            "lru_evictions": self.lru_evictions,
            "cost_usd": self.cloud.cost_so_far(),
        }

    def check_integrity(self) -> None:
        """Directory and node contents must agree exactly."""
        seen = 0
        for node in self.nodes:
            node.check()
            for _, rec in node.items():
                assert self.directory.get(rec.key) is node, (
                    f"record {rec.key} on {node.node_id} but directory says "
                    f"{getattr(self.directory.get(rec.key), 'node_id', None)}"
                )
                seen += 1
        assert seen == len(self.directory), "directory has dangling entries"
