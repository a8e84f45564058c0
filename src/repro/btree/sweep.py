"""Leaf-level range sweep — the data-collection half of Algorithm 2.

"Recalling that leaf nodes are arranged as a key-sorted linked list in
B+-Trees, a sweep on the leaf level is performed until ``k_end`` has been
reached."  :func:`sweep_range` yields the records in ``[k_start, k_end]``
without mutating the tree; callers (:meth:`repro.btree.store.NodeStore.sweep`)
materialize it before deleting swept keys, so the iterator never races its
own deletions.
"""

from __future__ import annotations

from typing import Iterator

from repro.btree.bplustree import BPlusTree, LeafNode


def sweep_range(tree: BPlusTree, k_start, k_end) -> Iterator[tuple]:
    """Yield ``(key, value)`` for every key in ``[k_start, k_end]``, in order.

    This is the paper's Algorithm 2 lines 7-22 minus the transfer: a
    ``btree.search(k_start)`` to find the starting leaf followed by a walk
    of the linked leaves, stopping at the first key beyond ``k_end``.

    Parameters
    ----------
    tree:
        The B+-tree to sweep (not modified).
    k_start, k_end:
        Inclusive key bounds; if ``k_start > k_end`` the sweep is empty.
    """
    if k_start > k_end or len(tree) == 0:
        return
    leaf, idx = tree.search_leaf(k_start)
    current: LeafNode | None = leaf
    first = True
    while current is not None:
        start = idx if first else 0
        first = False
        for i in range(start, len(current.keys)):
            key = current.keys[i]
            if key > k_end:
                return
            yield key, current.values[i]
        current = current.next

