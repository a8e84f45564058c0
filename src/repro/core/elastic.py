"""The elastic cooperative cache — public facade.

This is the "Cloud service, from the application developer's perspective,
for indexing, caching, and reusing precomputed results" (Sec. II): a
high-level ``get``/``put`` interface hiding victimization, replacement,
resource management, and data movement.

Wiring: a :class:`~repro.core.ring.ConsistentHashRing` routes keys, each
node holds its slice in a :class:`~repro.btree.store.NodeStore`,
:class:`~repro.core.gba.GreedyBucketAllocator` handles overflow splits,
:class:`~repro.core.sliding_window.SlidingWindowEvictor` scores eviction
candidates at slice expiry, and
:class:`~repro.core.contraction.Contractor` merges superfluous nodes to cut
cost.
"""

from __future__ import annotations

from typing import Callable

from repro.cloud.instance import InstanceType
from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.cachenode import CacheNode
from repro.core.config import CacheConfig, ContractionConfig, EvictionConfig
from repro.core.contraction import Contractor, MergeEvent
from repro.core.gba import GreedyBucketAllocator, SplitEvent
from repro.core.record import CacheRecord
from repro.core.ring import ConsistentHashRing
from repro.core.sliding_window import EvictionBatch, SlidingWindowEvictor


class ElasticCooperativeCache:
    """The paper's cache system, end to end.

    Parameters
    ----------
    cloud:
        The (simulated) IaaS provider; node allocation and billing.
    network:
        The ``T_net`` model shared by migrations and lookups.
    config:
        Structural parameters (ring, capacities, greediness).
    eviction:
        Sliding-window parameters; the default (``window_slices=None``)
        is the paper's infinite window — the cache only ever grows.
    contraction:
        Node-merge parameters (ignored while the window is infinite,
        since no slice ever expires).
    node_source:
        Optional override for node provisioning — the warm-pool extension
        injects its pre-booted instances here.  Must return a RUNNING
        :class:`~repro.cloud.instance.CloudNode` and advance the clock by
        whatever allocation latency applies.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sim import SimClock
    >>> from repro.cloud import SimulatedCloud, NetworkModel
    >>> clock = SimClock()
    >>> cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(7))
    >>> cache = ElasticCooperativeCache(
    ...     cloud=cloud, network=NetworkModel(),
    ...     config=CacheConfig(ring_range=1024, node_capacity_bytes=10_000))
    >>> cache.put(5, "result", nbytes=100)
    []
    >>> cache.get(5).value
    'result'
    """

    def __init__(
        self,
        *,
        cloud: SimulatedCloud,
        network: NetworkModel,
        config: CacheConfig,
        eviction: EvictionConfig = EvictionConfig(),
        contraction: ContractionConfig = ContractionConfig(),
        itype: InstanceType | None = None,
        node_source: Callable[[], object] | None = None,
    ) -> None:
        self.cloud = cloud
        self.network = network
        self.clock = cloud.clock
        self.config = config
        self.eviction_config = eviction
        self.contraction_config = contraction
        self.itype = itype or cloud.default_itype
        self._node_source = node_source

        self.ring = ConsistentHashRing(config.ring_range, config.hash_mode)
        self.nodes: list[CacheNode] = []

        # Cold start: provision the initial node(s) and lay down bucket(s),
        # always including the sentinel at r-1 (see ring module docs).
        r = self.ring.ring_range  # 2**64 in splitmix mode
        for i in range(config.initial_nodes):
            node = self._provision_node()
            pos = ((i + 1) * r) // config.initial_nodes - 1
            self.ring.add_bucket(pos, node)

        self.gba = GreedyBucketAllocator(
            ring=self.ring,
            clock=self.clock,
            network=network,
            config=config,
            allocate_node=self._provision_node,
            live_nodes=lambda: self.nodes,
        )
        self.evictor: SlidingWindowEvictor | None = (
            SlidingWindowEvictor(eviction) if eviction.enabled else None
        )
        self.contractor = Contractor(
            ring=self.ring,
            clock=self.clock,
            network=network,
            config=contraction,
            live_nodes=lambda: self.nodes,
            release_node=self._release_node,
        )

    # -------------------------------------------------------- provisioning

    def _node_capacity(self) -> int:
        if self.config.node_capacity_bytes is not None:
            return self.config.node_capacity_bytes
        return self.itype.usable_bytes

    def _provision_node(self) -> CacheNode:
        """Allocate a cloud instance and register it as a cache node."""
        if self._node_source is not None:
            cloud_node = self._node_source()
        else:
            cloud_node = self.cloud.allocate(self.itype, block=True)
        node = CacheNode(cloud_node, self._node_capacity())
        self.nodes.append(node)
        return node

    def _release_node(self, node: CacheNode) -> None:
        """Unregister a drained node and terminate its instance."""
        if node.used_bytes or len(node):
            raise RuntimeError(f"refusing to release non-empty {node.node_id}")
        self.nodes.remove(node)
        self.cloud.terminate(node.cloud_node)

    # ----------------------------------------------------------- data path

    def get(self, key: int) -> CacheRecord | None:
        """Cache search: a lookup on the node referenced by ``h(k)``."""
        hkey = self.ring.hash_key(key)
        node: CacheNode = self.ring.node_for_hkey(hkey)
        return node.get(hkey)

    def put(self, key: int, value, nbytes: int) -> list[SplitEvent]:
        """GBA-insert a derived result; returns any splits it triggered."""
        record = CacheRecord(
            key=key, hkey=self.ring.hash_key(key), value=value, nbytes=nbytes
        )
        return self.gba.insert(record)

    def evict_keys(self, keys) -> int:
        """Delete the given keys wherever they are cached; returns count
        actually removed (keys already gone, or repeated, are skipped
        silently).  Routed in hash order, one ring lookup per run of
        keys on one bucket (:meth:`ConsistentHashRing.runs`)."""
        ring = self.ring
        hkeys = sorted(ring.hash_keys(keys))
        removed = 0
        for bucket, start, end in ring.runs(hkeys):
            pop = ring.node_map[bucket].pop
            for i in range(start, end):
                if pop(hkeys[i]) is not None:
                    removed += 1
        return removed

    # ------------------------------------------------------- stream hooks

    def record_query(self, key: int) -> None:
        """Feed the sliding window (every query, hit or miss)."""
        if self.evictor is not None:
            self.evictor.record(key)

    def end_time_slice(self) -> tuple[EvictionBatch | None, int, MergeEvent | None]:
        """Close a time slice: run eviction scoring and maybe contraction.

        Returns ``(eviction_batch, evicted_count, merge_event)`` — all
        ``None``/0 when the window is infinite.
        """
        if self.evictor is None:
            return None, 0, None
        batch = self.evictor.end_slice()
        removed = self.evict_keys(batch.evicted_keys) if batch.evicted_keys else 0
        merge: MergeEvent | None = None
        if batch.slice_id >= 0:  # a slice actually expired
            merge = self.contractor.on_slice_expired()
        return batch, removed, merge

    # ------------------------------------------------------------ queries

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    @property
    def node_count(self) -> int:
        """Currently allocated cooperative nodes, ``|N|``."""
        return len(self.nodes)

    @property
    def used_bytes(self) -> int:
        """``Σ ||n||`` across the cooperative cache."""
        return sum(n.used_bytes for n in self.nodes)

    @property
    def capacity_bytes(self) -> int:
        """``Σ ⌈n⌉`` across the cooperative cache."""
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
            "buckets": len(self.ring.buckets),
            "splits": len(self.gba.split_events),
            "merges": len(self.contractor.merge_events),
            "cost_usd": self.cloud.cost_so_far(),
        }

    def check_integrity(self) -> None:
        """Deep structural check (tests): stores, routing."""
        for node in self.nodes:
            node.check()
            # Every cached record must be routed back to the node holding it.
            for _, rec in node.items():
                owner = self.ring.node_for_hkey(rec.hkey)
                assert owner is node, (
                    f"record {rec.key} stored on {node.node_id} but ring "
                    f"routes it to {owner.node_id}"
                )
