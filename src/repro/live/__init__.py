"""A *real* cooperative cache cluster over TCP (localhost-deployable).

Everything under :mod:`repro.core` runs on a virtual clock for faithful,
fast reproduction of the paper's experiments.  This package is the other
half of a credible release: an actual wire-protocol implementation of the
same design — threaded TCP cache servers holding B+-tree-indexed slices,
and a client that routes with the same consistent-hash ring and migrates
key ranges between live servers exactly like Algorithm 2's sweep.

* :mod:`repro.live.protocol` — wire v2: one fixed binary header per frame.
* :mod:`repro.live.server` — :class:`LiveCacheServer`, a threaded TCP
  server around a locked B+-tree store.
* :mod:`repro.live.client` — :class:`LiveCacheClient` (one server) and
  :class:`LiveClusterClient` (consistent-hash routing + live sweep
  migration across servers).

See ``examples/live_cluster.py`` for an end-to-end localhost deployment.
"""

from repro.live.client import LiveCacheClient, LiveClusterClient
from repro.live.coordinator import LiveCoordinator, LiveQueryStats
from repro.live.protocol import ProtocolError
from repro.live.server import LiveCacheServer

__all__ = [
    "LiveCacheServer",
    "LiveCacheClient",
    "LiveClusterClient",
    "LiveCoordinator",
    "LiveQueryStats",
    "ProtocolError",
]
