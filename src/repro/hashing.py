"""The stable 64-bit key hash, free of any heavy import.

:func:`stable_key_hash` is the ring's ``splitmix`` ``h'`` and the
static baseline's mod-N placement.  It lives in a module of its own so
a live client, which routes through :mod:`repro.core.ring`, does not
load NumPy with :mod:`repro.sim.rng`; that module re-exports it.
"""

from __future__ import annotations


def stable_key_hash(key: int, salt: int = 0x9E3779B9) -> int:
    """A fast, deterministic 64-bit integer hash for cache keys.

    The consistent-hash ring must spread *sequential* linearized keys across
    the ``[0, r)`` hash line; raw ``k mod r`` would put adjacent spatial keys
    on the same node, which is exactly what the B²-tree linearization wants
    *within* a node but not what load balancing wants *across* nodes.  This
    is a splitmix64 finalizer — cheap, well-distributed, and pure Python int
    math (no numpy overhead for single keys).
    """
    z = (key + salt) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)
