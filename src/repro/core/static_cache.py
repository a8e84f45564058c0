"""The static-N baseline: fixed nodes, static hashing, per-node LRU.

"We run our cache system over static, fixed-node configurations (static-2,
static-4, static-8), comparable to current cluster/grid environments, where
the amounts of nodes one can allocate is typically fixed.  The fixed-node
settings subscribe to the simple LRU eviction policy." (Sec. IV-B)

Placement is the paper's static hash ``h(k) = k mod n`` (Sec. II-A's
motivating example).  :meth:`resize` implements exactly the **hash
disruption** that example warns about — changing ``n`` rehashes everything —
and is used by the hashing ablation benchmark to quantify how many records
relocate versus consistent hashing.
"""

from __future__ import annotations

from repro.cloud.instance import InstanceType
from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.cachenode import CacheNode, CapacityError
from repro.core.config import CacheConfig
from repro.core.lru import LRUTracker
from repro.core.record import CacheRecord
from repro.sim.rng import stable_key_hash


class StaticCooperativeCache:
    """A fixed fleet of cache nodes with mod-N placement and LRU eviction.

    Presents the same ``get``/``put``/``record_query``/``end_time_slice``
    surface as :class:`~repro.core.elastic.ElasticCooperativeCache` so the
    coordinator and harness are baseline-agnostic.

    Parameters
    ----------
    n_nodes:
        The fleet size (the paper's static-2 / static-4 / static-8).
    hash_mode:
        ``"identity"`` — the paper's ``k mod n``; ``"splitmix"`` — mix the
        key first (useful when key distributions are skewed).
    """

    def __init__(
        self,
        *,
        cloud: SimulatedCloud,
        network: NetworkModel,
        config: CacheConfig,
        n_nodes: int,
        itype: InstanceType | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.cloud = cloud
        self.network = network
        self.clock = cloud.clock
        self.config = config
        self.itype = itype or cloud.default_itype
        self.nodes: list[CacheNode] = []
        self.lru: list[LRUTracker] = []
        self.lru_evictions = 0
        for _ in range(n_nodes):
            cloud_node = cloud.allocate(self.itype, block=True)
            capacity = config.node_capacity_bytes or self.itype.usable_bytes
            self.nodes.append(CacheNode(cloud_node, capacity))
            self.lru.append(LRUTracker())

    # ---------------------------------------------------------- placement

    def _hash(self, key: int) -> int:
        if self.config.hash_mode == "identity":
            return key
        return stable_key_hash(key)

    def _node_index(self, key: int) -> int:
        """Static hashing: ``h(k) = k mod n``."""
        return self._hash(key) % len(self.nodes)

    # ----------------------------------------------------------- data path

    def get(self, key: int) -> CacheRecord | None:
        """Lookup; touches LRU recency on hit."""
        idx = self._node_index(key)
        hkey = self._hash(key)
        record = self.nodes[idx].get(hkey)
        if record is not None:
            self.lru[idx].touch(hkey)
        return record

    def put(self, key: int, value, nbytes: int) -> list:
        """Insert, evicting LRU records on the target node until it fits.

        Returns an empty list (no split events) for harness symmetry.
        """
        idx = self._node_index(key)
        node = self.nodes[idx]
        lru = self.lru[idx]
        hkey = self._hash(key)

        if node.pop(hkey) is not None:
            lru.discard(hkey)

        if nbytes > node.capacity_bytes:
            raise CapacityError(
                f"record of {nbytes} B exceeds node capacity "
                f"{node.capacity_bytes} B; static caches cannot split"
            )
        while not node.fits(nbytes):
            node.pop(lru.pop_victim())
            self.lru_evictions += 1

        node.insert(CacheRecord(key=key, hkey=hkey, value=value, nbytes=nbytes))
        lru.touch(hkey)
        return []

    # -------------------------------------------------------- stream hooks

    def record_query(self, key: int) -> None:
        """No global interest window in the static baseline."""

    def end_time_slice(self) -> tuple[None, int, None]:
        """No slice semantics in the static baseline."""
        return None, 0, None

    # ------------------------------------------------------------- resize

    def resize(self, n_nodes: int) -> int:
        """Change the fleet size, rehashing every record (hash disruption).

        Grows or shrinks the fleet to ``n_nodes`` and relocates records
        whose ``k mod n`` changed.  Returns the number of relocated
        records — the quantity consistent hashing exists to minimize.
        Records that no longer fit on their new node are LRU-evicted there.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        old_n = len(self.nodes)
        if n_nodes == old_n:
            return 0

        while len(self.nodes) < n_nodes:
            cloud_node = self.cloud.allocate(self.itype, block=True)
            capacity = self.config.node_capacity_bytes or self.itype.usable_bytes
            self.nodes.append(CacheNode(cloud_node, capacity))
            self.lru.append(LRUTracker())

        def placement(key: int) -> int:
            if self.config.hash_mode == "identity":
                return key % n_nodes
            return stable_key_hash(key) % n_nodes

        # Two-phase rehash: extract every relocating record first, then
        # place.  (One-phase placement could LRU-evict a record that is
        # itself queued for relocation off the same node, corrupting the
        # move list.)
        moved = 0
        relocations: list[CacheRecord] = []
        for idx, node in enumerate(self.nodes[:old_n]):
            for _, rec in node.items():
                if placement(rec.key) != idx:
                    node.pop(rec.hkey)
                    self.lru[idx].discard(rec.hkey)
                    relocations.append(rec)

        for rec in relocations:
            new_idx = placement(rec.key)
            dest, dest_lru = self.nodes[new_idx], self.lru[new_idx]
            while not dest.fits(rec.nbytes):
                dest.pop(dest_lru.pop_victim())
                self.lru_evictions += 1
            dest.insert(rec)
            dest_lru.touch(rec.hkey)
            moved += 1

        while len(self.nodes) > n_nodes:
            node = self.nodes.pop()
            self.lru.pop()
            self.cloud.terminate(node.cloud_node)
        return moved

    # ------------------------------------------------------------ queries

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    @property
    def node_count(self) -> int:
        """The fixed fleet size."""
        return len(self.nodes)

    @property
    def used_bytes(self) -> int:
        """Total bytes cached across the fleet."""
        return sum(n.used_bytes for n in self.nodes)

    @property
    def capacity_bytes(self) -> int:
        """Total capacity across the fleet."""
        return sum(n.capacity_bytes for n in self.nodes)

    @property
    def record_count(self) -> int:
        """Total cached records."""
        return sum(len(n) for n in self.nodes)

    def stats(self) -> dict:
        """Flat state snapshot for reports and tests."""
        return {
            "nodes": self.node_count,
            "records": self.record_count,
            "used_bytes": self.used_bytes,
            "capacity_bytes": self.capacity_bytes,
            "lru_evictions": self.lru_evictions,
            "cost_usd": self.cloud.cost_so_far(),
        }
