"""A textbook in-memory B+-tree with linked leaves.

Design notes
------------
* Keys are any totally ordered type; experiments use linearized integer
  keys (see :mod:`repro.sfc`).
* Leaves hold parallel ``keys``/``values`` lists and a ``next`` pointer —
  the "key-sorted linked list" structure Algorithm 2's sweep exploits.
* Internal nodes hold separator ``keys`` and ``children``; child ``i``
  covers keys ``< keys[i]``, the last child covers the rest.  Lookups use
  :func:`bisect.bisect_right`, i.e. separators equal to a key route right.
* Deletion implements full borrow/merge rebalancing, since sweep-migrate
  removes up to half a node's records and the tree must stay balanced for
  the paper's ``O(log ||n||)`` search bound to keep holding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

_MISSING = object()


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list = []


class LeafNode(_Node):
    """A leaf: parallel key/value lists plus the linked-list pointer."""

    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: list = []
        self.next: LeafNode | None = None

    def is_leaf(self) -> bool:
        return True


class InternalNode(_Node):
    """An internal node: ``len(children) == len(keys) + 1``."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []

    def is_leaf(self) -> bool:
        return False


class BPlusTree:
    """An order-``order`` B+-tree mapping keys to values.

    ``order`` is the maximum number of keys a node may hold; nodes split
    when they exceed it and rebalance when they drop below ``order // 2``.

    Examples
    --------
    >>> t = BPlusTree(order=4)
    >>> for k in [5, 1, 9, 3, 7]:
    ...     t.insert(k, str(k))
    >>> t.search(7)
    '7'
    >>> [k for k, _ in t.items()]
    [1, 3, 5, 7, 9]
    >>> t.delete(5)
    '5'
    >>> len(t)
    4
    """

    def __init__(self, order: int = 64) -> None:
        if order < 3:
            raise ValueError(f"order must be >= 3, got {order}")
        self.order = order
        self.root: _Node = LeafNode()
        self._size = 0

    @classmethod
    def from_sorted(cls, keys, order: int = 64) -> BPlusTree:
        """Bulk-load a keys-only tree (every value ``None``) in ``O(n)``.

        ``keys`` must be strictly increasing.  Leaves are packed as full
        as the order allows, with sizes differing by at most one, and
        linked left to right; each internal level groups the one below
        the same way, its separators being the lowest key of every
        child but the first.  The result passes :meth:`check_invariants`
        and takes inserts and deletes like any other tree.

        >>> t = BPlusTree.from_sorted(range(10), order=4)
        >>> t.check_invariants(); list(t.keys()) == list(range(10))
        True
        """
        tree = cls(order)
        keys = list(keys)
        n = len(keys)
        if n == 0:
            return tree
        level: list[_Node] = []
        nleaves = -(-n // order)
        prev: LeafNode | None = None
        for i in range(nleaves):
            leaf = LeafNode()
            leaf.keys = keys[i * n // nleaves:(i + 1) * n // nleaves]
            leaf.values = [None] * len(leaf.keys)
            if prev is not None:
                prev.next = leaf
            prev = leaf
            level.append(leaf)
        lows = [node.keys[0] for node in level]
        while len(level) > 1:
            c = len(level)
            nparents = -(-c // (order + 1))
            parents: list[_Node] = []
            parent_lows = []
            for i in range(nparents):
                a, b = i * c // nparents, (i + 1) * c // nparents
                node = InternalNode()
                node.children = level[a:b]
                node.keys = lows[a + 1:b]
                parents.append(node)
                parent_lows.append(lows[a])
            level, lows = parents, parent_lows
        tree.root = level[0]
        tree._size = n
        return tree

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key) -> bool:
        return self.search(key, default=_MISSING) is not _MISSING

    def _find_leaf(self, key) -> LeafNode:
        """Descend to the leaf that would contain ``key``."""
        node = self.root
        while not node.is_leaf():
            idx = bisect_right(node.keys, key)
            node = node.children[idx]  # type: ignore[attr-defined]
        return node  # type: ignore[return-value]

    def search(self, key, default=None):
        """Return the value for ``key``, or ``default`` if absent."""
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def search_leaf(self, key) -> tuple[LeafNode, int]:
        """Return ``(leaf, index)`` where ``key`` is or would be stored.

        This is Algorithm 2's line 7 (``btree.search(k_start)``): the
        returned leaf is the sweep's starting point even when the key
        itself is absent.
        """
        leaf = self._find_leaf(key)
        return leaf, bisect_left(leaf.keys, key)

    def min_key(self):
        """Smallest key in the tree (``None`` when empty)."""
        if self._size == 0:
            return None
        node = self.root
        while not node.is_leaf():
            node = node.children[0]  # type: ignore[attr-defined]
        return node.keys[0]

    def max_key(self):
        """Largest key in the tree (``None`` when empty)."""
        if self._size == 0:
            return None
        node = self.root
        while not node.is_leaf():
            node = node.children[-1]  # type: ignore[attr-defined]
        return node.keys[-1]

    def items(self) -> Iterator[tuple]:
        """Yield all ``(key, value)`` pairs in key order via the leaf chain."""
        node = self.root
        while not node.is_leaf():
            node = node.children[0]  # type: ignore[attr-defined]
        leaf: LeafNode | None = node  # type: ignore[assignment]
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def keys(self) -> Iterator:
        """Yield all keys in order."""
        for k, _ in self.items():
            yield k

    def kth_key(self, k: int):
        """Return the ``k``-th smallest key (0-based).

        A whole-tree order statistic (GBA's per-range median is
        :meth:`repro.btree.store.NodeStore.kth_key`).  This walks the
        leaf chain: ``O(k / order)`` leaf hops.
        """
        if not 0 <= k < self._size:
            raise IndexError(f"kth_key({k}) out of range for size {self._size}")
        node = self.root
        while not node.is_leaf():
            node = node.children[0]  # type: ignore[attr-defined]
        leaf: LeafNode = node  # type: ignore[assignment]
        remaining = k
        while remaining >= len(leaf.keys):
            remaining -= len(leaf.keys)
            assert leaf.next is not None
            leaf = leaf.next
        return leaf.keys[remaining]

    def count_range(self, key_start, key_end) -> int:
        """Number of keys ``key_start <= k <= key_end`` (leaf-chain walk)."""
        leaf, idx = self.search_leaf(key_start)
        count = 0
        current: LeafNode | None = leaf
        while current is not None:
            keys = current.keys
            lo = idx if current is leaf else 0
            hi = bisect_right(keys, key_end)
            if hi > lo:
                count += hi - lo
            if keys and keys[-1] > key_end:
                break
            current = current.next
        return count

    # ------------------------------------------------------------- insert

    def insert(self, key, value) -> None:
        """Insert or overwrite ``key``.

        Overwriting does not change the tree shape; a fresh key may split
        nodes up to the root.
        """
        path: list[tuple[InternalNode, int]] = []
        node = self.root
        while not node.is_leaf():
            idx = bisect_right(node.keys, key)
            path.append((node, idx))  # type: ignore[arg-type]
            node = node.children[idx]  # type: ignore[attr-defined]
        leaf: LeafNode = node  # type: ignore[assignment]

        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx] = value
            return
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._size += 1

        if len(leaf.keys) <= self.order:
            return
        self._split(leaf, path)

    def _split(self, node: _Node, path: list[tuple[InternalNode, int]]) -> None:
        """Split an overfull node, propagating up the recorded path."""
        while len(node.keys) > self.order:
            mid = len(node.keys) // 2
            if node.is_leaf():
                left: LeafNode = node  # type: ignore[assignment]
                right = LeafNode()
                right.keys = left.keys[mid:]
                right.values = left.values[mid:]
                del left.keys[mid:]
                del left.values[mid:]
                right.next = left.next
                left.next = right
                sep = right.keys[0]
            else:
                ileft: InternalNode = node  # type: ignore[assignment]
                right = InternalNode()  # type: ignore[assignment]
                sep = ileft.keys[mid]
                right.keys = ileft.keys[mid + 1:]
                right.children = ileft.children[mid + 1:]
                del ileft.keys[mid:]
                del ileft.children[mid + 1:]

            if path:
                parent, idx = path.pop()
                parent.keys.insert(idx, sep)
                parent.children.insert(idx + 1, right)
                node = parent
            else:
                new_root = InternalNode()
                new_root.keys = [sep]
                new_root.children = [node, right]
                self.root = new_root
                return

    # ------------------------------------------------------------- delete

    def delete(self, key):
        """Remove ``key`` and return its value.

        Raises
        ------
        KeyError
            If ``key`` is absent.
        """
        path: list[tuple[InternalNode, int]] = []
        node = self.root
        while not node.is_leaf():
            idx = bisect_right(node.keys, key)
            path.append((node, idx))  # type: ignore[arg-type]
            node = node.children[idx]  # type: ignore[attr-defined]
        leaf: LeafNode = node  # type: ignore[assignment]

        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyError(key)
        value = leaf.values.pop(idx)
        leaf.keys.pop(idx)
        self._size -= 1
        self._rebalance(leaf, path)
        return value

    def pop(self, key, default=_MISSING):
        """Remove ``key`` if present; return its value or ``default``."""
        try:
            return self.delete(key)
        except KeyError:
            if default is _MISSING:
                raise
            return default

    def _min_fill(self) -> int:
        return self.order // 2

    def _rebalance(self, node: _Node, path: list[tuple[InternalNode, int]]) -> None:
        """Restore the minimum-fill invariant after a deletion."""
        while True:
            if not path:
                # Node is the root: shrink the tree if an internal root
                # has a single child; an underfull leaf root is fine.
                if not node.is_leaf() and len(node.keys) == 0:
                    self.root = node.children[0]  # type: ignore[attr-defined]
                return
            if len(node.keys) >= self._min_fill():
                return

            parent, idx = path.pop()
            left_sib = parent.children[idx - 1] if idx > 0 else None
            right_sib = parent.children[idx + 1] if idx + 1 < len(parent.children) else None

            if left_sib is not None and len(left_sib.keys) > self._min_fill():
                self._borrow_from_left(node, left_sib, parent, idx)
                return
            if right_sib is not None and len(right_sib.keys) > self._min_fill():
                self._borrow_from_right(node, right_sib, parent, idx)
                return

            # Merge with a sibling; the parent loses a separator and may
            # itself underflow, so loop upward.
            if left_sib is not None:
                self._merge(left_sib, node, parent, idx - 1)
            else:
                assert right_sib is not None
                self._merge(node, right_sib, parent, idx)
            node = parent

    @staticmethod
    def _borrow_from_left(node: _Node, left: _Node, parent: InternalNode, idx: int) -> None:
        if node.is_leaf():
            lleaf: LeafNode = left  # type: ignore[assignment]
            nleaf: LeafNode = node  # type: ignore[assignment]
            nleaf.keys.insert(0, lleaf.keys.pop())
            nleaf.values.insert(0, lleaf.values.pop())
            parent.keys[idx - 1] = nleaf.keys[0]
        else:
            lint: InternalNode = left  # type: ignore[assignment]
            nint: InternalNode = node  # type: ignore[assignment]
            nint.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = lint.keys.pop()
            nint.children.insert(0, lint.children.pop())

    @staticmethod
    def _borrow_from_right(node: _Node, right: _Node, parent: InternalNode, idx: int) -> None:
        if node.is_leaf():
            rleaf: LeafNode = right  # type: ignore[assignment]
            nleaf: LeafNode = node  # type: ignore[assignment]
            nleaf.keys.append(rleaf.keys.pop(0))
            nleaf.values.append(rleaf.values.pop(0))
            parent.keys[idx] = rleaf.keys[0]
        else:
            rint: InternalNode = right  # type: ignore[assignment]
            nint: InternalNode = node  # type: ignore[assignment]
            nint.keys.append(parent.keys[idx])
            parent.keys[idx] = rint.keys.pop(0)
            nint.children.append(rint.children.pop(0))

    @staticmethod
    def _merge(left: _Node, right: _Node, parent: InternalNode, sep_idx: int) -> None:
        """Fold ``right`` into ``left``; drop the separator at ``sep_idx``."""
        if left.is_leaf():
            lleaf: LeafNode = left  # type: ignore[assignment]
            rleaf: LeafNode = right  # type: ignore[assignment]
            lleaf.keys.extend(rleaf.keys)
            lleaf.values.extend(rleaf.values)
            lleaf.next = rleaf.next
        else:
            lint: InternalNode = left  # type: ignore[assignment]
            rint: InternalNode = right  # type: ignore[assignment]
            lint.keys.append(parent.keys[sep_idx])
            lint.keys.extend(rint.keys)
            lint.children.extend(rint.children)
        parent.keys.pop(sep_idx)
        parent.children.pop(sep_idx + 1)

    # ------------------------------------------------------------- checks

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property-based tests).

        Verifies: key ordering within and across nodes, fill factors,
        uniform leaf depth, leaf-chain completeness and sortedness, and
        size accounting.

        Raises
        ------
        AssertionError
            On any violation.
        """
        leaves: list[LeafNode] = []
        depths: set[int] = set()
        count = self._walk_check(self.root, depth=0, lo=None, hi=None,
                                 is_root=True, leaves=leaves, depths=depths)
        assert count == self._size, f"size mismatch: walked {count}, recorded {self._size}"
        assert len(depths) <= 1, f"leaves at multiple depths: {depths}"

        # Leaf chain must visit exactly the in-order leaves.
        if leaves:
            node = self.root
            while not node.is_leaf():
                node = node.children[0]  # type: ignore[attr-defined]
            chain = []
            cursor: LeafNode | None = node  # type: ignore[assignment]
            while cursor is not None:
                chain.append(cursor)
                cursor = cursor.next
            assert chain == leaves, "leaf chain disagrees with tree order"
            all_keys = [k for leaf in leaves for k in leaf.keys]
            assert all_keys == sorted(all_keys), "leaf chain keys unsorted"

    def _walk_check(self, node: _Node, depth: int, lo, hi, is_root: bool,
                    leaves: list, depths: set) -> int:
        assert node.keys == sorted(node.keys), "node keys unsorted"
        for k in node.keys:
            assert lo is None or k >= lo, f"key {k} below bound {lo}"
            assert hi is None or k < hi, f"key {k} above bound {hi}"
        if node.is_leaf():
            leaf: LeafNode = node  # type: ignore[assignment]
            assert len(leaf.keys) == len(leaf.values), "leaf key/value skew"
            if not is_root:
                assert len(leaf.keys) >= self._min_fill(), "underfull leaf"
            assert len(leaf.keys) <= self.order, "overfull leaf"
            depths.add(depth)
            leaves.append(leaf)
            return len(leaf.keys)
        internal: InternalNode = node  # type: ignore[assignment]
        assert len(internal.children) == len(internal.keys) + 1, "child count"
        if is_root:
            assert len(internal.keys) >= 1, "empty internal root"
        else:
            assert len(internal.keys) >= self._min_fill(), "underfull internal"
        assert len(internal.keys) <= self.order, "overfull internal"
        total = 0
        bounds = [lo, *internal.keys, hi]
        for i, child in enumerate(internal.children):
            total += self._walk_check(child, depth + 1, bounds[i], bounds[i + 1],
                                      is_root=False, leaves=leaves, depths=depths)
        return total
