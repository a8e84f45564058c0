"""A *real* cooperative cache cluster over TCP (localhost-deployable).

Everything under :mod:`repro.core` runs on a virtual clock for faithful,
fast reproduction of the paper's experiments.  This package is the other
half of a credible release: an actual wire-protocol implementation of the
same design — threaded TCP cache servers, each namespace a
:class:`~repro.btree.store.NodeStore` (a ``dict`` point index, with the
ordered B+-tree index built on demand by range ops), and a client that
routes with the same consistent-hash ring and migrates key ranges between
live servers exactly like Algorithm 2's sweep.

* :mod:`repro.live.protocol` — wire v2: one fixed binary header per frame.
* :mod:`repro.live.server` — :class:`LiveCacheServer`, a threaded TCP
  server holding a primary and a replica ``NodeStore``, each under its
  own lock.
* :mod:`repro.live.client` — :class:`LiveCacheClient` (one server) and
  :class:`LiveClusterClient` (consistent-hash routing + live sweep
  migration across servers).
* :mod:`repro.live.coordinator` — :class:`LiveCoordinator`, the paper's
  query loop (hit, compute on miss, grow on overflow) over the cluster.

The names above resolve on first use, so a server process that imports
:mod:`repro.live.server` loads neither the client nor the simulator.
See ``examples/live_cluster.py`` for an end-to-end localhost deployment.
"""

import importlib

#: public name -> its defining module, imported on first use (PEP 562)
_EXPORTS = {
    "LiveCacheServer": "repro.live.server",
    "LiveCacheClient": "repro.live.client",
    "LiveClusterClient": "repro.live.client",
    "LiveCoordinator": "repro.live.coordinator",
    "LiveQueryStats": "repro.live.coordinator",
    "ProtocolError": "repro.live.protocol",
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
