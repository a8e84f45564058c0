"""The ring's run rule, and the simulator's batched eviction built on it.

:meth:`ConsistentHashRing.runs` routes sorted hash positions with one
lookup per run of positions on one bucket.  The live batch router
(``LiveClusterClient._group_by_owner``) and the simulator's slice-end
eviction (:meth:`ElasticCooperativeCache.evict_keys`) share it, so both
must agree with routing each key on its own — on rings with and without
the ``r-1`` sentinel (without it, positions above the last bucket wrap
to the first), for absent keys, and for keys repeated in one batch (a
merged batch after an adaptive-window shrink can repeat a key).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.config import CacheConfig
from repro.core.elastic import ElasticCooperativeCache
from repro.core.record import CacheRecord
from repro.core.ring import ConsistentHashRing
from repro.sim.clock import SimClock

R = 1 << 10
REC = 10
MAX_NODES = 4


@st.composite
def ring_specs(draw):
    """``(positions, owners)``: 1-8 buckets on up to four nodes, with the
    sentinel at ``r-1`` or without it (then the first bucket wraps)."""
    positions = draw(st.lists(st.integers(0, R - 2), min_size=1,
                              max_size=8, unique=True))
    if draw(st.booleans()):
        positions.append(R - 1)
    owners = draw(st.lists(st.integers(0, MAX_NODES - 1),
                           min_size=len(positions), max_size=len(positions)))
    return positions, owners


def build_cache(spec, resident) -> ElasticCooperativeCache:
    """A small elastic cache re-pointed at a hand-built ring: each
    resident key on the node the ring routes it to, plus a decoy copy
    on some other node that no routing may touch."""
    clock = SimClock()
    cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(0),
                           max_nodes=MAX_NODES + 1)
    cache = ElasticCooperativeCache(
        cloud=cloud, network=NetworkModel(),
        config=CacheConfig(ring_range=R, node_capacity_bytes=1 << 20))
    cache.nodes.clear()
    nodes = [cache._provision_node() for _ in range(MAX_NODES)]
    ring = cache.ring = ConsistentHashRing(R)
    for pos, owner in zip(*spec):
        ring.add_bucket(pos, nodes[owner])
    for key in resident:
        owner = ring.node_for_key(key)
        owner.insert(CacheRecord(key=key, hkey=key, value="v", nbytes=REC))
        decoy = next(n for n in nodes if n is not owner)
        decoy.insert(CacheRecord(key=key, hkey=key, value="decoy",
                                 nbytes=REC))
    return cache


def contents(cache) -> list[list[tuple[int, str]]]:
    return [[(hkey, rec.value) for hkey, rec in node.items()]
            for node in cache.nodes]


def evict_per_key(cache, keys) -> int:
    """The reference: hash and route each key on its own."""
    removed = 0
    for key in keys:
        hkey = cache.ring.hash_key(key)
        if cache.ring.node_for_hkey(hkey).pop(hkey) is not None:
            removed += 1
    return removed


@settings(max_examples=200, deadline=None)
@given(spec=ring_specs(),
       resident=st.sets(st.integers(0, R - 1), max_size=40),
       extra=st.lists(st.integers(0, R - 1), max_size=20),
       data=st.data())
def test_batched_eviction_removes_what_per_key_routing_removes(
        spec, resident, extra, data):
    # Evict some resident keys (each maybe twice) and some absent ones.
    chosen = data.draw(st.lists(st.sampled_from(sorted(resident)),
                                max_size=40)) if resident else []
    keys = data.draw(st.permutations(chosen + chosen[::2] + extra))
    batched, reference = build_cache(spec, resident), build_cache(spec,
                                                                   resident)
    assert batched.evict_keys(keys) == evict_per_key(reference, keys)
    assert contents(batched) == contents(reference)


@settings(max_examples=200, deadline=None)
@given(spec=ring_specs(),
       hkeys=st.lists(st.integers(0, R - 1), max_size=60))
def test_runs_tile_the_sorted_positions_by_owning_bucket(spec, hkeys):
    ring = ConsistentHashRing(R)
    for pos, owner in zip(*spec):
        ring.add_bucket(pos, owner)
    hkeys.sort()
    runs = list(ring.runs(hkeys))
    bounds = [0] + [end for _, _, end in runs]
    assert [start for _, start, _ in runs] == bounds[:-1]
    assert bounds[-1] == len(hkeys)
    for bucket, start, end in runs:
        assert start < end
        assert all(ring.bucket_for_hkey(h) == bucket
                   for h in hkeys[start:end])
    # One run per bucket, plus one when the tail wraps to the first.
    assert len(runs) <= len(ring.buckets) + 1


def test_evict_keys_routes_once_per_run(monkeypatch):
    """Three buckets, a batch touching two of them: two lookups, however
    many keys (and repeats) the batch holds."""
    cache = build_cache(([99, 499, R - 1], [0, 1, 2]), range(0, 400, 3))
    calls = []
    original = ConsistentHashRing.bucket_for_hkey

    def counted(self, hkey):
        calls.append(hkey)
        return original(self, hkey)

    monkeypatch.setattr(ConsistentHashRing, "bucket_for_hkey", counted)
    keys = list(range(0, 400, 3)) * 2
    assert cache.evict_keys(keys) == len(range(0, 400, 3))
    assert len(calls) == 2
