"""Cache snapshot/restore — warm starts and experiment checkpoints.

The paper's caches are always cold at experiment start; real deployments
want the opposite: survive a coordinator restart, or seed a new region
from an existing cache.  A snapshot captures the *logical* cache state —
bucket layout, node assignment, and every record — and restore rebuilds
it on freshly provisioned nodes with identical routing.

Format: Python pickles (records hold arbitrary payload objects).  Only
load snapshots you produced — pickle executes code on load.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.config import CacheConfig, ContractionConfig, EvictionConfig
from repro.core.elastic import ElasticCooperativeCache
from repro.core.record import CacheRecord

SNAPSHOT_VERSION = 1


@dataclass
class CacheSnapshot:
    """The logical state of an elastic cache at one instant."""

    version: int
    config: CacheConfig
    eviction: EvictionConfig
    contraction: ContractionConfig
    #: bucket position -> node index (order of ``cache.nodes``)
    bucket_map: dict[int, int]
    #: per node: list of (key, hkey, nbytes, value)
    node_records: list[list[tuple]]

    @property
    def record_count(self) -> int:
        """Total records captured."""
        return sum(len(r) for r in self.node_records)


def snapshot(cache: ElasticCooperativeCache) -> CacheSnapshot:
    """Capture a cache's logical state (structure + records)."""
    node_index = {id(node): i for i, node in enumerate(cache.nodes)}
    bucket_map = {
        pos: node_index[id(cache.ring.node_map[pos])]
        for pos in cache.ring.buckets
    }
    node_records = [
        [(rec.key, rec.hkey, rec.nbytes, rec.value)
         for _, rec in node.items()]
        for node in cache.nodes
    ]
    return CacheSnapshot(
        version=SNAPSHOT_VERSION,
        config=cache.config,
        eviction=cache.eviction_config,
        contraction=cache.contraction_config,
        bucket_map=bucket_map,
        node_records=node_records,
    )


def save_cache(cache: ElasticCooperativeCache, path: str | Path) -> CacheSnapshot:
    """Snapshot ``cache`` and pickle it to ``path``."""
    snap = snapshot(cache)
    Path(path).write_bytes(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
    return snap


def restore_cache(snap: CacheSnapshot, *, cloud: SimulatedCloud,
                  network: NetworkModel) -> ElasticCooperativeCache:
    """Rebuild a cache from a snapshot on fresh instances.

    Provisioning advances the clock (one boot per node, as a real warm
    start would); callers checkpointing experiments typically
    ``clock.reset()`` afterwards.

    Raises
    ------
    ValueError
        On an unsupported snapshot version.
    """
    if snap.version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {snap.version}")

    # Build an empty shell with one initial node, then reshape it.
    cache = ElasticCooperativeCache(
        cloud=cloud, network=network, config=snap.config,
        eviction=snap.eviction, contraction=snap.contraction,
    )
    n_nodes = len(snap.node_records)
    while len(cache.nodes) < n_nodes:
        cache._provision_node()

    # Replace the constructor's default bucket layout with the snapshot's.
    cache.ring.buckets.clear()
    cache.ring.node_map.clear()
    for pos, node_idx in sorted(snap.bucket_map.items()):
        cache.ring.add_bucket(pos, cache.nodes[node_idx])

    for node, records in zip(cache.nodes, snap.node_records):
        for key, hkey, nbytes, value in records:
            node.insert(CacheRecord(key=key, hkey=hkey, value=value,
                                    nbytes=nbytes))
    cache.check_integrity()
    return cache


def load_cache(path: str | Path, *, cloud: SimulatedCloud,
               network: NetworkModel) -> ElasticCooperativeCache:
    """Unpickle a snapshot from ``path`` and restore it."""
    snap: CacheSnapshot = pickle.loads(Path(path).read_bytes())
    return restore_cache(snap, cloud=cloud, network=network)
