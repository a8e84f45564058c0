"""One cooperative cache node: a :class:`~repro.btree.store.NodeStore` on a
provisioned cloud instance.

The store is keyed by **hash-line position** ``h'(k)`` (see
:mod:`repro.core.ring`): with the paper's order-preserving ``h'``, tree
order equals key order equals hash-line order, so a bucket's records occupy
one contiguous leaf range — exactly what Algorithm 2's sweep walks.  Each
value is a :class:`~repro.core.record.CacheRecord`, charged its ``nbytes``.
"""

from __future__ import annotations

from repro.btree.store import NodeStore
from repro.cloud.instance import CloudNode
from repro.core.record import CacheRecord


class CapacityError(RuntimeError):
    """Raised when a record cannot fit anywhere (e.g. larger than ``⌈n⌉``)."""


class CacheNode(NodeStore):
    """A cloud node's slice of the cooperative cache.

    ``capacity_bytes`` is ``⌈n⌉`` and ``used_bytes`` is ``||n||``.
    """

    def __init__(self, cloud_node: CloudNode, capacity_bytes: int,
                 order: int = 64) -> None:
        super().__init__(capacity_bytes, order)
        self.cloud_node = cloud_node

    @property
    def node_id(self) -> str:
        """The provider id of the backing instance."""
        return self.cloud_node.node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheNode({self.node_id}, {len(self)} recs, "
            f"{self.used_bytes}/{self.capacity_bytes} B)"
        )

    def insert(self, record: CacheRecord) -> None:
        """Store a record at its ``hkey``; an overwrite refunds the old
        footprint first.

        Raises
        ------
        CapacityError
            If it does not fit (the node is left unchanged).
        """
        if self.put(record.hkey, record) is None:
            raise CapacityError(
                f"{self.node_id}: {record.nbytes} B record overflows "
                f"{self.free_bytes} B free"
            )
