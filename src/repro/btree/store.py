"""One cache node's records: the store the simulator and the live server share.

A :class:`NodeStore` holds a ``dict`` point index, a keys-only
:class:`~repro.btree.bplustree.BPlusTree` over the same keys, and byte
accounting against a capacity.  Point ops (get, put, pop) touch only the
dict and the byte count; a new key or a pop just drops the tree, marking
the ordered index stale.  The tree is the ordered index Algorithm 2
needs, and only range ops use it, so the first range op after a change
bulk-loads it again from the sorted keys
(:meth:`~repro.btree.bplustree.BPlusTree.from_sorted`, ``O(n log n)`` for
the sort).  :meth:`NodeStore.sweep` is then a search for the start key
followed by a walk of the linked leaves, and the range count, range bytes
and k-th key walk the same leaves.

One size rule: a value is charged ``len(value)`` bytes — the payload
length for the live server's ``bytes``, ``nbytes`` for the simulator's
:class:`~repro.core.record.CacheRecord`.  The store is not thread-safe;
the live server wraps it in a lock.
"""

from __future__ import annotations

from itertools import islice

from repro.btree.bplustree import BPlusTree
from repro.btree.sweep import sweep_range


class NodeStore:
    """A capacity-bounded key/value store with an ordered key index,
    built on demand: writes keep only the dict, range ops rebuild the
    tree when a write has made it stale.

    Parameters
    ----------
    capacity_bytes:
        ``⌈n⌉``: the most bytes the store may hold.
    order:
        Fan-out of the keys-only B+-tree.

    Examples
    --------
    >>> s = NodeStore(capacity_bytes=10)
    >>> s.put(3, b"abc"), s.put(1, b"xy"), s.put(3, b"abcd")
    (0, 0, 3)
    >>> s.used_bytes, s.sweep(0, 5), s.kth_key(0, 5, 1)
    (6, [(1, b'xy'), (3, b'abcd')], 3)
    >>> s.put(2, b"toolong") is None
    True
    """

    def __init__(self, capacity_bytes: int, order: int = 64) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        #: key -> value; the values live only here
        self.index: dict = {}
        self._order = order
        # the index's keys, ordered; None while stale (see ``tree``)
        self._tree: BPlusTree | None = None

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key) -> bool:
        return key in self.index

    @property
    def tree(self) -> BPlusTree:
        """The keys-only ordered index over the current keys (values all
        ``None``), bulk-loaded from ``sorted(index)`` if a new key or a
        pop made it stale."""
        if self._tree is None:
            self._tree = BPlusTree.from_sorted(sorted(self.index), order=self._order)
        return self._tree

    @property
    def free_bytes(self) -> int:
        """``⌈n⌉ - ||n||``."""
        return self.capacity_bytes - self.used_bytes

    def fits(self, nbytes: int) -> bool:
        """Alg. 1 line 5: would ``nbytes`` more stay within capacity?"""
        return self.used_bytes + nbytes <= self.capacity_bytes

    # ---------------------------------------------------------- point ops

    def get(self, key):
        """The value stored at ``key``, or ``None``."""
        return self.index.get(key)

    def put(self, key, value) -> int | None:
        """Store ``value`` at ``key``.

        Returns the bytes an overwrite refunded (0 for a new key), or
        ``None`` — leaving the store unchanged — when the value would
        overflow capacity even after the refund.
        """
        old = self.index.get(key)
        freed = len(old) if old is not None else 0
        size = len(value)
        if self.used_bytes - freed + size > self.capacity_bytes:
            return None
        self.used_bytes += size - freed
        if old is None:
            self._tree = None
        self.index[key] = value
        return freed

    def pop(self, key):
        """Remove and return the value at ``key``, or ``None`` if absent."""
        value = self.index.pop(key, None)
        if value is not None:
            self._tree = None
            self.used_bytes -= len(value)
        return value

    # ---------------------------------------------------------- range ops

    def sweep(self, lo, hi) -> list[tuple]:
        """Algorithm 2's leaf sweep: every ``(key, value)`` with
        ``lo <= key <= hi``, in key order.  A list, so the caller may pop
        what it swept."""
        index = self.index
        return [(key, index[key]) for key, _ in sweep_range(self.tree, lo, hi)]

    def items(self) -> list[tuple]:
        """Every ``(key, value)``, in key order."""
        index = self.index
        return [(key, index[key]) for key in self.tree.keys()]

    def count_in(self, lo, hi) -> int:
        """Number of keys in ``[lo, hi]``."""
        return self.tree.count_range(lo, hi)

    def bytes_in(self, lo, hi) -> int:
        """Bytes held by the keys in ``[lo, hi]``."""
        index = self.index
        return sum(len(index[key]) for key, _ in sweep_range(self.tree, lo, hi))

    def kth_key(self, lo, hi, k: int):
        """The ``k``-th (0-based) key in ``[lo, hi]``; GBA's median."""
        for key, _ in islice(sweep_range(self.tree, lo, hi), k, None):
            return key
        raise IndexError(f"[{lo}, {hi}] holds fewer than {k + 1} keys")

    # -------------------------------------------------------------- check

    def check(self) -> None:
        """Assert the tree is sound, holds exactly the index's keys, and
        ``used_bytes`` is the sum of the stored sizes, within capacity."""
        self.tree.check_invariants()
        keys = list(self.tree.keys())
        assert len(keys) == len(self.index) and set(keys) == self.index.keys(), (
            f"tree holds {len(keys)} keys, index {len(self.index)}"
        )
        total = sum(map(len, self.index.values()))
        assert total == self.used_bytes, (
            f"used_bytes={self.used_bytes} but stored values sum to {total}"
        )
        assert self.used_bytes <= self.capacity_bytes, "over capacity"
