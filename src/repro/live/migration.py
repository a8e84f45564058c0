"""Loss-proof two-phase range moves.

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
* :func:`prepare_move` / :func:`finish_move` — the *caller-side* range
  move, the one copy of prepare → copy → commit/abort that every
  migration runs: growth, contraction, restore (primary namespace) and
  the hinted-handoff drain (replica namespace).  The cluster reshapes
  prepare inside their exclusive topology section and finish outside
  it, so traffic flows during the copy.
* :class:`RangeTable` — hash-key ranges mapped to the client that still
  holds them: the cluster's in-flight move forwards and the replica
  layer's failed-range claims.

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
from typing import TYPE_CHECKING, Callable

from repro.live.protocol import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.client import LiveCacheClient

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


@dataclass
class Move:
    """A prepared range move: transfer tokens held at ``source``."""

    source: "LiveCacheClient"
    replica: bool
    tokens: list[str]
    #: every snapshotted ``(key, value)``, in segment order.
    records: list[tuple[int, bytes]]

    def abort(self) -> None:
        """Release every token, best-effort: a token the source cannot
        be told about lease-expires, records untouched."""
        for token in self.tokens:
            try:
                self.source.extract_abort(token, replica=self.replica)
            except (ProtocolError, OSError):
                pass


def prepare_move(source: "LiveCacheClient", segments,
                 replica: bool = False) -> Move:
    """Phase one: snapshot each ``(lo, hi)`` segment of ``source`` (its
    replica namespace with ``replica``) under a transfer token.  The
    records stay at the source.  If any segment fails, the tokens
    already taken are aborted and the error propagates."""
    move = Move(source, replica, [], [])
    try:
        for lo, hi in segments:
            token, records = source.extract_prepare(lo, hi, replica=replica)
            move.tokens.append(token)
            move.records += records
    except BaseException:
        move.abort()
        raise
    return move


def finish_move(move: Move, dest: "LiveCacheClient"
                ) -> list[tuple[int, bytes]]:
    """Phase two: one ``if_absent`` ``multi_put`` of the snapshot into
    ``dest``'s primary namespace, then commit every token (deleting the
    records at the source).  ``if_absent``: a key ``dest`` already holds
    arrived after the snapshot and is newer, so it wins.

    If the copy fails, every token is aborted — the source keeps
    everything, so the caller can re-run the move — and the error is
    raised.  Returns the records ``dest`` newly stored.  A move of a
    primary range onto its own source (the range folded into another
    bucket of the same server) is aborted: the records are already home,
    and a commit would delete them.
    """
    if dest is move.source and not move.replica:
        move.abort()
        return []
    landed: set[int] = set()
    if move.records:
        try:
            result = dest.multi_put(move.records, if_absent=True)
            if result.error is not None:
                raise result.error
        except BaseException:
            move.abort()
            raise
        landed = set(result.stored)
    for token in move.tokens:
        move.source.extract_commit(token, replica=move.replica)
    return [(k, v) for k, v in move.records if k in landed]


class RangeTable:
    """Hash-key ranges mapped to the client that still holds them.

    Entries are ``(lo, hi, client)`` tuples.  The entry tuple is
    replaced wholesale under a lock, so lookups never lock, and an empty
    table costs one truth test.  Entries are dropped by identity: the
    list :meth:`add` returns is the handle to drop them with.
    """

    def __init__(self) -> None:
        self.entries: tuple = ()
        self._lock = threading.Lock()

    def __bool__(self) -> bool:
        return bool(self.entries)

    def add(self, entries) -> list:
        entries = list(entries)
        with self._lock:
            self.entries += tuple(entries)
        return entries

    def drop(self, entries) -> None:
        dead = {id(e) for e in entries}
        with self._lock:
            self.entries = tuple(e for e in self.entries
                                 if id(e) not in dead)

    def lookup(self, hkey: int):
        """The client of the first entry covering ``hkey``, or ``None``."""
        for lo, hi, client in self.entries:
            if lo <= hkey <= hi:
                return client
        return None
