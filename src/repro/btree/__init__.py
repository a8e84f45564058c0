"""In-memory B+-tree (the per-cache-node index of Sec. II-A).

"Each node in our system employs a variant of B+-Trees to index cached data
due to its familiar and pervasive nature."  The implementation here is a
textbook order-``t`` B+-tree with the one property Algorithm 2 requires:
**leaves form a key-sorted singly linked list**, so a range sweep is a
search for the start key followed by a linear walk.

:class:`~repro.sfc.btwo.BSquareTree` layers space-filling-curve key
linearization on top of this tree to form the paper's B²-tree, and
:class:`~repro.btree.store.NodeStore` puts a point index and byte
accounting around it: one cache node's records, in the simulator and the
live server alike.
"""

from repro.btree.bplustree import BPlusTree
from repro.btree.store import NodeStore
from repro.btree.sweep import sweep_range

__all__ = ["BPlusTree", "NodeStore", "sweep_range"]
