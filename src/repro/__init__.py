"""repro — elastic cooperative cloud caches for service-oriented computing.

A full reproduction of Chiu, Shetty & Agrawal, *"Elastic Cloud Caches for
Accelerating Service-Oriented Computations"* (SC 2010): the GBA cooperative
cache, its sliding-window decay eviction and contraction schemes, the
static-N/LRU baselines, a simulated EC2 substrate, the shoreline-extraction
workload, and a benchmark harness regenerating every figure in the paper's
evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import (ElasticCooperativeCache, CacheConfig, SimulatedCloud,
...                    NetworkModel, SimClock)
>>> clock = SimClock()
>>> cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(0))
>>> cache = ElasticCooperativeCache(
...     cloud=cloud, network=NetworkModel(),
...     config=CacheConfig(ring_range=1 << 16, node_capacity_bytes=1 << 20))
>>> cache.put(42, b"derived result", nbytes=2048)
[]
>>> cache.get(42).value
b'derived result'

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

import importlib

__version__ = "1.0.0"

#: public name -> the subpackage that defines it.  Resolved on first use
#: (PEP 562), so importing one subpackage -- a cache server process
#: imports only ``repro.live.server`` -- never loads the others.
_EXPORTS = {
    # sim
    "SimClock": "repro.sim",
    "RngStreams": "repro.sim",
    # cloud
    "SimulatedCloud": "repro.cloud",
    "CloudNode": "repro.cloud",
    "InstanceType": "repro.cloud",
    "NetworkModel": "repro.cloud",
    "BillingMeter": "repro.cloud",
    # core
    "CacheConfig": "repro.core",
    "EvictionConfig": "repro.core",
    "ContractionConfig": "repro.core",
    "ExperimentTimings": "repro.core",
    "ElasticCooperativeCache": "repro.core",
    "StaticCooperativeCache": "repro.core",
    "Coordinator": "repro.core",
    "MetricsRecorder": "repro.core",
    # services
    "Service": "repro.services",
    "ServiceResult": "repro.services",
    "ServiceRegistry": "repro.services",
    "SyntheticService": "repro.services",
    "ShorelineExtractionService": "repro.services",
    "CoastalTerrainModel": "repro.services",
    "WaterLevelModel": "repro.services",
    "CompositeService": "repro.services",
    # sfc
    "Linearizer": "repro.sfc",
    "BSquareTree": "repro.sfc",
    # workload
    "KeySpace": "repro.workload",
    "QueryWorkload": "repro.workload",
    "QueryTrace": "repro.workload",
    "RateSchedule": "repro.workload",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
