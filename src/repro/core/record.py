"""The unit of caching: one derived service result."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CacheRecord:
    """An immutable cached ``(k, v)`` pair with its memory footprint.

    Attributes
    ----------
    key:
        The service-input key ``k`` (a linearized spatiotemporal
        coordinate — see :mod:`repro.sfc`).
    hkey:
        ``h'(k)``, the key's fixed position on the hash line.  Stored so
        lookups, migrations, and evictions never re-hash.
    value:
        The derived result (opaque to the cache; typically a
        :class:`~repro.services.base.ServiceResult`).
    nbytes:
        ``sizeof(k, v)`` — the record's in-memory footprint, charged
        against node capacity ``⌈n⌉``.
    """

    key: int
    hkey: int
    value: Any
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"record footprint must be positive, got {self.nbytes}")

    def __len__(self) -> int:
        """``nbytes``: the size a :class:`~repro.btree.store.NodeStore`
        charges.  Always positive, so a record stays truthy."""
        return self.nbytes
