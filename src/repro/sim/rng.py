"""Named, reproducible random-number streams.

Every stochastic component (workload key sampling, allocation latency,
terrain synthesis, ...) draws from its own named stream derived from a single
experiment seed.  Streams are independent, so adding randomness to one
component never perturbs another — a requirement for the paper-shape
regression tests in :mod:`tests.test_experiments`.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.hashing import stable_key_hash  # noqa: F401 - re-exported


class RngStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Each stream is keyed by a string name; the sub-seed is derived from the
    root seed and a stable hash of the name (``zlib.crc32``, not Python's
    randomized ``hash``).

    Examples
    --------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("workload").integers(0, 100)
    >>> b = RngStreams(seed=42).get("workload").integers(0, 100)
    >>> int(a) == int(b)
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the (memoized) generator for stream ``name``."""
        if name not in self._streams:
            sub = zlib.crc32(name.encode("utf-8"))
            self._streams[name] = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(sub,))
            )
        return self._streams[name]

    def fork(self, name: str) -> "RngStreams":
        """Derive a child factory (e.g. one per replicated trial)."""
        return RngStreams(seed=self.seed ^ zlib.crc32(name.encode("utf-8")))

    def reset(self) -> None:
        """Drop all memoized streams so they restart from their sub-seeds."""
        self._streams.clear()
