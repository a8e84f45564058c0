"""Consistent hashing — buckets ``B`` and ``NodeMap`` (Sec. II-A, Fig. 1).

The hash line is ``[0, r)``.  A key ``k`` lands at ``h'(k)`` and is served
by the bucket at ``h'(k)``'s *closest upper* position (circular), i.e.::

    h(k) = b_1                                   if h'(k) > b_p
           argmin_{b_i >= h'(k)} (b_i - h'(k))   otherwise

implemented as a binary search over the sorted bucket positions — the
``O(log₂ p)`` the paper's ``T_GBA`` analysis assumes.

The ring holds positions and owners only.  It keeps no record of what a
bucket holds: the node's store does, and Algorithm 1 line 10's "fullest
bucket referencing ``n``" is summed from it at split time (see
:func:`repro.core.gba.fullest_bucket`).

Practical note: :class:`~repro.core.elastic.ElasticCooperativeCache` pins a
**sentinel bucket at position r-1** on the initial node, so every bucket's
interval ``(b_{i-1}, b_i]`` is a contiguous hash range and the circular
wrap case never holds live records.  This keeps Alg. 1's median split (which
sweeps a *contiguous* B+-tree key range) exact without special-casing the
wrap bucket; the circular lookup semantics above are still implemented and
tested.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING

from repro.hashing import stable_key_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cachenode import CacheNode


class RingError(RuntimeError):
    """Raised on structurally invalid ring operations."""


class ConsistentHashRing:
    """The bucket sequence ``B`` and the ``NodeMap`` relation.

    Parameters
    ----------
    ring_range:
        ``r``: hash positions are integers in ``[0, r)``.
    hash_mode:
        ``"identity"`` (the paper's ``k mod r``) or ``"splitmix"``
        (bijective 64-bit mix, then ``mod r``).  See
        :class:`~repro.core.config.CacheConfig`.

    Examples
    --------
    >>> ring = ConsistentHashRing(ring_range=100)
    >>> ring.add_bucket(99, "n1")
    >>> ring.add_bucket(49, "n2")
    >>> ring.node_for_key(10)   # h'(10)=10 <= 49 -> bucket 49
    'n2'
    >>> ring.node_for_key(80)   # 49 < 80 <= 99 -> bucket 99
    'n1'
    """

    def __init__(self, ring_range: int, hash_mode: str = "identity") -> None:
        if ring_range < 2:
            raise RingError("ring_range must be >= 2")
        if hash_mode not in ("identity", "splitmix"):
            raise RingError(f"unknown hash_mode {hash_mode!r}")
        # splitmix64 is a bijection on 64-bit ints; using its full range
        # keeps h' collision-free (two distinct keys never share a hash
        # position, which the per-node trees rely on).  Identity mode uses
        # the caller's r and relies on the keyspace fitting inside it.
        self.ring_range = (1 << 64) if hash_mode == "splitmix" else ring_range
        self.hash_mode = hash_mode
        self.buckets: list[int] = []  #: sorted bucket positions, the paper's B
        self.node_map: dict[int, "CacheNode | object"] = {}  #: NodeMap[b] = n

    # ---------------------------------------------------------------- hash

    def hash_key(self, key: int) -> int:
        """The auxiliary fixed hash ``h'(k) = k mod r`` (or mixed variant).

        In identity mode, keys at or beyond ``r`` would alias (two distinct
        keys sharing one hash position corrupt the per-node index), so they
        are rejected rather than silently wrapped; experiments size ``r``
        to cover the keyspace, as the paper does.
        """
        if self.hash_mode == "identity":
            if not 0 <= key < self.ring_range:
                raise RingError(
                    f"key {key} outside identity hash range [0, {self.ring_range}); "
                    "enlarge ring_range or use hash_mode='splitmix'"
                )
            return key
        return stable_key_hash(key)

    def hash_keys(self, keys) -> list[int]:
        """:meth:`hash_key` over a batch, in order, with the same errors:
        in identity mode one range check covers the whole batch."""
        if self.hash_mode == "identity":
            keys = list(keys)
            if keys and (min(keys) < 0 or max(keys) >= self.ring_range):
                for key in keys:
                    self.hash_key(key)  # raises for the first stray key
            return keys
        return [stable_key_hash(key) for key in keys]

    def bucket_for_hkey(self, hkey: int) -> int:
        """``h(k)``: the closest upper bucket, wrapping circularly."""
        if not self.buckets:
            raise RingError("ring has no buckets")
        idx = bisect_left(self.buckets, hkey)
        if idx == len(self.buckets):  # h'(k) > b_p: wrap to b_1
            return self.buckets[0]
        return self.buckets[idx]

    def runs(self, hkeys):
        """Route sorted positions ``hkeys`` in one pass, one lookup per run.

        Yields ``(bucket, start, end)``: every position in
        ``hkeys[start:end]`` routes to ``bucket``, and the runs tile the
        list in order.  The smallest unrouted position finds its bucket
        (:meth:`bucket_for_hkey`); every position up to that bucket is
        the bucket's (a bisect), or — when it wrapped, i.e. the position
        lies above the last bucket — every position left is.
        """
        start, n = 0, len(hkeys)
        while start < n:
            hkey = hkeys[start]
            bucket = self.bucket_for_hkey(hkey)
            end = n if bucket < hkey else bisect_right(hkeys, bucket, start)
            yield bucket, start, end
            start = end

    def node_for_key(self, key: int):
        """Resolve a key to its responsible cache node."""
        return self.node_map[self.bucket_for_hkey(self.hash_key(key))]

    def node_for_hkey(self, hkey: int):
        """Resolve a pre-hashed position to its node."""
        return self.node_map[self.bucket_for_hkey(hkey)]

    # ------------------------------------------------------------- buckets

    def add_bucket(self, pos: int, node) -> None:
        """Introduce a bucket at ``pos`` referencing ``node``."""
        if not 0 <= pos < self.ring_range:
            raise RingError(f"bucket position {pos} outside [0, {self.ring_range})")
        if pos in self.node_map:
            raise RingError(f"bucket {pos} already exists")
        insort(self.buckets, pos)
        self.node_map[pos] = node

    def remove_bucket(self, pos: int) -> None:
        """Drop the bucket at ``pos``; its interval folds into the successor.

        Whatever the bucket's node holds in the interval is routed to the
        successor's node from then on; moving those records is the caller's.
        """
        if pos not in self.node_map:
            raise RingError(f"no bucket at {pos}")
        if len(self.buckets) == 1:
            raise RingError("cannot remove the last bucket")
        idx = bisect_left(self.buckets, pos)
        self.buckets.pop(idx)
        del self.node_map[pos]

    def reassign_bucket(self, pos: int, node) -> None:
        """Point an existing bucket at a different node (whole-bucket move)."""
        if pos not in self.node_map:
            raise RingError(f"no bucket at {pos}")
        self.node_map[pos] = node

    def buckets_of(self, node) -> list[int]:
        """All bucket positions referencing ``node``."""
        return [b for b in self.buckets if self.node_map[b] is node]

    def successor_owner(self, pos: int):
        """The buddy-placement rule: owner of the first bucket circularly
        after ``pos`` that references a *different* node.

        Replication places each bucket's copy on this node, so a whole-node
        failure (all of a node's buckets at once) never takes out both the
        primary and its replica.  Returns ``None`` when every bucket
        references the same node (nowhere distinct to replicate).
        """
        if pos not in self.node_map:
            raise RingError(f"no bucket at {pos}")
        owner = self.node_map[pos]
        idx = bisect_left(self.buckets, pos)
        for step in range(1, len(self.buckets)):
            candidate = self.buckets[(idx + step) % len(self.buckets)]
            node = self.node_map[candidate]
            if node is not owner and node != owner:
                return node
        return None

    def predecessor_bucket(self, pos: int) -> int:
        """The bucket circularly before ``pos`` (itself when alone)."""
        if pos not in self.node_map:
            raise RingError(f"no bucket at {pos}")
        idx = bisect_left(self.buckets, pos)
        return self.buckets[idx - 1]

    def interval_segments(self, pos: int) -> list[tuple[int, int]]:
        """The hash-line segment(s) bucket ``pos`` covers, as inclusive
        ``(lo, hi)`` pairs **in circular order**.

        For bucket ``b_i`` with predecessor ``b_{i-1}`` this is
        ``[b_{i-1}+1, b_i]``; the first bucket covers the circular tail
        ``[b_p+1, r-1]`` *followed by* ``[0, b_1]`` (the tail segment is
        empty — and omitted — when ``b_p == r-1``, i.e. whenever the
        sentinel bucket is present).  Circular ordering matters to GBA's
        median split: "the lowest key to the median" is circular distance
        from the interval's start, not absolute hash position.
        """
        if pos not in self.node_map:
            raise RingError(f"no bucket at {pos}")
        idx = bisect_left(self.buckets, pos)
        if len(self.buckets) == 1:
            return [(0, self.ring_range - 1)]
        if idx == 0:
            segments = []
            tail_lo = self.buckets[-1] + 1
            if tail_lo <= self.ring_range - 1:
                segments.append((tail_lo, self.ring_range - 1))
            segments.append((0, pos))
            return segments
        return [(self.buckets[idx - 1] + 1, pos)]

    def nodes(self) -> list:
        """Distinct nodes currently referenced by the ring (stable order)."""
        seen: list = []
        for b in self.buckets:
            node = self.node_map[b]
            if all(node is not s for s in seen):
                seen.append(node)
        return seen
