"""The paper's contribution: an elastic cooperative cloud cache.

Layering (bottom → top):

* :class:`ConsistentHashRing` — buckets ``B`` and ``NodeMap`` (Sec. II-A,
  Fig. 1); bucket loads come from the nodes' stores.
* :class:`CacheNode` — one cloud node's slice of the cache: capacity
  accounting (``||n||``, ``⌈n⌉``) over a B+-tree index.
* :class:`GreedyBucketAllocator` — Algorithms 1 (GBA-insert) and 2
  (sweep-and-migrate).
* :class:`SlidingWindowEvictor` — the decay-based global eviction scheme
  (Sec. III-B) and :class:`Contractor` — the ε-periodic node-merge
  heuristic.
* :class:`ElasticCooperativeCache` — the public facade gluing the above to
  a :class:`~repro.cloud.SimulatedCloud`.
* :class:`StaticCooperativeCache` — the paper's static-N / LRU baseline.
* :class:`Coordinator` — the query front-end: cache lookup, service
  invocation on miss, metrics.
"""

import importlib

#: public name -> its defining module, imported on first use (PEP 562),
#: so a live client that needs only :mod:`repro.core.ring` loads neither
#: the simulator nor NumPy.
_EXPORTS = {
    "CacheConfig": "repro.core.config",
    "EvictionConfig": "repro.core.config",
    "ContractionConfig": "repro.core.config",
    "ExperimentTimings": "repro.core.config",
    "ConsistentHashRing": "repro.core.ring",
    "RingError": "repro.core.ring",
    "CacheRecord": "repro.core.record",
    "CacheNode": "repro.core.cachenode",
    "CapacityError": "repro.core.cachenode",
    "GreedyBucketAllocator": "repro.core.gba",
    "SplitEvent": "repro.core.gba",
    "SlidingWindowEvictor": "repro.core.sliding_window",
    "Contractor": "repro.core.contraction",
    "MergeEvent": "repro.core.contraction",
    "ElasticCooperativeCache": "repro.core.elastic",
    "StaticCooperativeCache": "repro.core.static_cache",
    "DirectoryCache": "repro.core.directory",
    "AutoscaledModNCache": "repro.core.autoscaler",
    "ResizeEvent": "repro.core.autoscaler",
    "LRUTracker": "repro.core.lru",
    "Coordinator": "repro.core.coordinator",
    "QueryOutcome": "repro.core.coordinator",
    "MetricsRecorder": "repro.core.metrics",
    "StepStats": "repro.core.metrics",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
