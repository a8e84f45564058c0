"""Loss-proof two-phase record migration.

The paper's Algorithm 2 moves an interval of records from one cache node
to another.  Doing that with a destructive ``extract`` (delete at the
source, then stream) means a crash mid-stream silently loses derived
results that cost real service time (~23 s each in the paper's CTM
workload) to recompute.  This module is the safety layer both the live
wire protocol and the cluster client build on:

* :class:`TransferLedger` — the *source-side* state machine: a prepare
  snapshots the interval under a leased **transfer token** while the
  records stay in the store; only a commit deletes them; an abort (or
  lease expiry) releases the snapshot untouched.
* :func:`migrate_range` — the *caller-side* protocol: prepare → copy to
  destination → commit, with a best-effort abort on any copy failure.

Crash analysis (the invariant the chaos and property suites pin down):

==========================  =======================================
crash point                 post-recovery state
==========================  =======================================
before prepare              nothing happened
after prepare, before copy  source intact; lease expires, no change
mid-copy                    source intact + partial copy → duplicates
after copy, before commit   full copy → duplicates
after commit                migration complete
==========================  =======================================

Duplicates are benign: the cache stores *derived* results, so re-routing
re-inserts the same bytes and the stray copy is overwritten or evicted.
Loss is the only unrecoverable outcome, and no crash point produces it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol

#: default lease, generous next to real migration times (sub-second on a
#: LAN) but short enough that an abandoned prepare frees its snapshot.
DEFAULT_LEASE_S = 30.0


@dataclass
class Transfer:
    """One prepared (snapshot, lease) awaiting commit or abort."""

    token: str
    lo: int
    hi: int
    #: the snapshotted ``(key, value)`` pairs, exactly as streamed.
    records: list[tuple[int, bytes]]
    expires_at: float

    @property
    def keys(self) -> list[int]:
        return [k for k, _ in self.records]


class TransferLedger:
    """Source-side two-phase extraction state (thread-safe).

    The ledger never touches the store itself — it only answers *which
    keys a commit should delete*.  The owner (the live server's dispatch
    loop, under its store lock) performs the deletes, so snapshot
    consistency and byte accounting stay in one place.

    Parameters
    ----------
    lease_s:
        Default snapshot lease.  An uncommitted prepare older than its
        lease is purged lazily (on the next ledger call); its records
        were never deleted, so expiry is always safe.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, lease_s: float = DEFAULT_LEASE_S,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.lease_s = lease_s
        self.clock = clock
        self._lock = threading.Lock()
        self._transfers: dict[str, Transfer] = {}
        self._counter = itertools.count(1)
        self.prepared = 0
        self.committed = 0
        self.aborted = 0
        self.expired = 0

    def _purge_locked(self, now: float) -> None:
        stale = [t for t, x in self._transfers.items() if x.expires_at <= now]
        for token in stale:
            del self._transfers[token]
            self.expired += 1

    def prepare(self, lo: int, hi: int, records: list[tuple[int, bytes]],
                lease_s: float | None = None) -> str:
        """Register a snapshot; returns its transfer token."""
        now = self.clock()
        lease = lease_s if lease_s is not None else self.lease_s
        with self._lock:
            self._purge_locked(now)
            token = f"t{next(self._counter)}-{lo}-{hi}"
            self._transfers[token] = Transfer(
                token=token, lo=lo, hi=hi, records=list(records),
                expires_at=now + lease)
            self.prepared += 1
            return token

    def commit(self, token: str) -> Transfer | None:
        """Consume a token; returns its transfer, or ``None`` if the
        token is unknown (already committed/aborted, or lease-expired).

        A ``None`` makes retried commits **idempotent**: the first
        commit deleted the records, the replay is a no-op.  A commit of
        an *expired* token is also ``None`` — the snapshot was released,
        so the worst case is duplicates at the destination, never loss.
        """
        now = self.clock()
        with self._lock:
            self._purge_locked(now)
            transfer = self._transfers.pop(token, None)
            if transfer is not None:
                self.committed += 1
            return transfer

    def abort(self, token: str) -> bool:
        """Release a snapshot without deleting; idempotent."""
        with self._lock:
            self._purge_locked(self.clock())
            if self._transfers.pop(token, None) is not None:
                self.aborted += 1
                return True
            return False

    @property
    def pending(self) -> int:
        """Prepared transfers currently awaiting commit/abort."""
        with self._lock:
            self._purge_locked(self.clock())
            return len(self._transfers)


class MigrationSource(Protocol):
    """What :func:`migrate_range` needs from a source shard."""

    def extract_prepare(self, lo: int, hi: int
                        ) -> tuple[str, list[tuple[int, bytes]]]: ...

    def extract_commit(self, token: str) -> int: ...

    def extract_abort(self, token: str) -> None: ...


def migrate_range(source: MigrationSource,
                  dest_put: Callable[[int, bytes], object],
                  lo: int, hi: int) -> list[tuple[int, bytes]]:
    """Move every record in ``[lo, hi]`` off ``source`` loss-proof.

    prepare (snapshot, records retained) → copy each record via
    ``dest_put`` → commit (delete at source).  If any copy fails the
    prepare is aborted best-effort — the source still holds everything,
    so the caller can simply re-run the migration.  The commit itself is
    idempotent at the source, so callers may retry it after a transport
    flap without risk.

    Returns the migrated records.  Raises whatever ``dest_put`` or the
    source ops raise.
    """
    token, records = source.extract_prepare(lo, hi)
    try:
        for key, value in records:
            dest_put(key, value)
    except BaseException:
        try:
            source.extract_abort(token)
        except Exception:  # pragma: no cover - source also unreachable
            pass  # lease expiry will release the snapshot
        raise
    source.extract_commit(token)
    return records
