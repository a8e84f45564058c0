"""Recorded operation histories for consistency checking.

A *history* is the ground truth a linearizability checker works from:
every operation the workload issued, with a logical invocation
timestamp, a logical response timestamp, and an **outcome**:

``"ok"``
    The cluster acknowledged the op; its effect (for a write) or its
    observation (for a read) is definite.
``"fail"``
    The cluster *definitely did not* apply the op — a typed refusal
    (shed, deadline, overflow) answered on a clean connection with no
    transport retry in between, so no earlier lost-reply attempt can
    have applied it.  Failed writes never happened; failed reads carry
    no observation.
``"unknown"``
    Indeterminate: a transport error (or a refusal that raced a
    transport retry) means the op *may or may not* have applied.  The
    checker treats an unknown write as free to linearize at any point
    after its invocation — or never; a later read observing its value
    pins it into the history (the classic indeterminate-put case).

Timestamps come from one process-wide logical clock (a locked counter),
so ``inv``/``res`` of concurrent threads interleave in a total order
consistent with real time — which is all Wing–Gong needs.

:class:`RecordingClient` wraps a
:class:`~repro.live.client.LiveClusterClient` for one workload process:
``get``/``put``/``get_many``/``put_many`` are recorded (batched ops
decompose into per-key sub-ops sharing one invocation window, which is
what lets the checker partition by key).  Outcome classification leans
conservative: when retry counters moved during an op, an error is
recorded ``unknown`` rather than ``fail``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace

from repro.live.protocol import REFUSALS, ProtocolError


@dataclass(frozen=True)
class Op:
    """One completed (or abandoned) operation on one key."""

    client: int      #: workload process id
    index: int       #: per-client sequence number
    kind: str        #: ``"r"`` or ``"w"``
    key: int
    #: value written (``w``) or observed (``r``; ``None`` = miss).
    value: bytes | None
    outcome: str     #: ``"ok"`` | ``"fail"`` | ``"unknown"``
    inv: int         #: logical invocation timestamp
    res: int         #: logical response timestamp

    def describe(self) -> str:
        val = "nil" if self.value is None else repr(self.value)[1:]
        op = (f"r({self.key}) -> {val}" if self.kind == "r"
              else f"w({self.key}, {val})")
        return (f"p{self.client}#{self.index:<4d} {op:<40s} "
                f"[{self.inv:>5d},{self.res:>5d}) {self.outcome}")


@dataclass(frozen=True)
class NemesisNote:
    """An annotation event (nemesis action, phase marker) in a history."""

    ts: int
    label: str

    def describe(self) -> str:
        return f"nemesis      {self.label:<40s} [{self.ts:>5d}]"


class History:
    """A thread-safe append-only operation history.

    The logical clock (:meth:`tick`) and the op list share one lock;
    each recorded op costs two ticks (invocation + response), so
    timestamps are unique and totally ordered across threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clock = itertools.count(1)
        self.ops: list[Op] = []
        self.notes: list[NemesisNote] = []

    def tick(self) -> int:
        """Next logical timestamp."""
        with self._lock:
            return next(self._clock)

    def record(self, op: Op) -> None:
        with self._lock:
            self.ops.append(op)

    def note(self, label: str) -> None:
        """Annotate the history (nemesis events, phase markers)."""
        with self._lock:
            self.notes.append(NemesisNote(next(self._clock), label))

    @property
    def op_count(self) -> int:
        """Completed ops so far — the nemesis timeline's clock."""
        with self._lock:
            return len(self.ops)

    def by_key(self) -> dict[int, list[Op]]:
        """P-compositionality: partition the history by key.

        A register history is linearizable iff each per-key
        sub-history is, so the checker can search each key's (much
        smaller) history independently.
        """
        per_key: dict[int, list[Op]] = {}
        for op in self.ops:
            per_key.setdefault(op.key, []).append(op)
        return per_key

    def render(self, ops: list[Op] | None = None,
               with_notes: bool = True) -> str:
        """A human-readable timeline (ordered by invocation).

        ``ops`` restricts the rendering (e.g. to a minimized
        counterexample); nemesis notes inside the covered window are
        interleaved so the reader sees what the cluster was doing.
        """
        chosen = sorted(self.ops if ops is None else ops,
                        key=lambda o: o.inv)
        rows: list[tuple[int, str]] = [(op.inv, op.describe())
                                       for op in chosen]
        if with_notes and chosen:
            lo = chosen[0].inv
            hi = max(op.res for op in chosen)
            rows.extend((n.ts, n.describe()) for n in self.notes
                        if lo <= n.ts <= hi)
        return "\n".join(line for _, line in sorted(rows))


class RecordingClient:
    """One workload process's recorded view of the cluster.

    Wraps a :class:`~repro.live.client.LiveClusterClient`; every call
    appends :class:`Op` events to the shared :class:`History`.  Errors
    are swallowed (recorded as ``fail``/``unknown``) — a workload
    thread should keep issuing ops through sheds and failovers; that is
    the history worth checking.
    """

    def __init__(self, cluster, history: History, process: int) -> None:
        self.cluster = cluster
        self.history = history
        self.process = process
        self._seq = itertools.count()

    # ------------------------------------------------------ classification

    def _retry_marker(self) -> int:
        """Transport retries + degraded shard branches, cluster-wide.

        Any movement across an op means a lost-reply attempt may have
        applied server-side before the visible error — classify
        ``unknown``, not ``fail``.  Cluster-wide is coarser than
        necessary (another thread's retry also flips it) but errs in
        the conservative direction.
        """
        return self.cluster.total_retries + self.cluster.batch_shard_failures

    def _record(self, kind: str, key: int, value: bytes | None,
                outcome: str, inv: int) -> None:
        self.history.record(Op(
            client=self.process, index=next(self._seq), kind=kind, key=key,
            value=value, outcome=outcome, inv=inv, res=self.history.tick()))

    # ---------------------------------------------------------- point ops

    def get(self, key: int, **kwargs) -> bytes | None:
        inv = self.history.tick()
        try:
            value = self.cluster.get(key, **kwargs)
        except (ProtocolError, OSError):
            # A failed read observed nothing; recorded for the timeline,
            # dropped by the checker.
            self._record("r", key, None, "fail", inv)
            return None
        self._record("r", key, value, "ok", inv)
        return value

    def put(self, key: int, value: bytes, **kwargs) -> bool:
        inv = self.history.tick()
        marker = self._retry_marker()
        try:
            self.cluster.put(key, value, **kwargs)
        except REFUSALS:
            # A typed refusal is answered *instead of* applying — but
            # only trust it if no transport retry blurred the attempt.
            outcome = "fail" if self._retry_marker() == marker else "unknown"
            self._record("w", key, value, outcome, inv)
            return False
        except (ProtocolError, OSError):
            self._record("w", key, value, "unknown", inv)
            return False
        self._record("w", key, value, "ok", inv)
        return True

    # ---------------------------------------------------------- batch ops

    def get_many(self, keys: list[int], **kwargs) -> dict[int, bytes]:
        """Batched read: one sub-op per key, sharing one time window.

        ``get_many`` degrades per shard without saying which keys hit a
        failed shard, so when any shard branch degraded during the
        call, this run's misses are recorded as failed reads (no
        observation) rather than as observed absences.
        """
        keys = list(keys)
        inv = self.history.tick()
        shard_failures = self.cluster.batch_shard_failures
        try:
            found = self.cluster.get_many(keys, **kwargs)
        except (ProtocolError, OSError):
            for key in keys:
                self._record("r", key, None, "fail", inv)
            return {}
        degraded = self.cluster.batch_shard_failures != shard_failures
        for key in keys:
            value = found.get(key)
            if value is None and degraded:
                self._record("r", key, None, "fail", inv)
            else:
                self._record("r", key, value, "ok", inv)
        return found

    def put_many(self, items: list[tuple[int, bytes]], **kwargs) -> int:
        """Batched write: one sub-op per key, sharing one time window.

        The cluster-level result only counts stored records, so
        anything short of full success records every sub-op as
        ``unknown`` (some applied, some may not have — the checker's
        indeterminate-outcome handling absorbs exactly this).
        """
        items = list(items)
        inv = self.history.tick()
        try:
            stored = self.cluster.put_many(items, **kwargs)
        except (ProtocolError, OSError):
            stored = -1
        outcome = "ok" if stored == len(items) else "unknown"
        for key, value in items:
            self._record("w", key, value, outcome, inv)
        return max(stored, 0)


def with_outcome(op: Op, outcome: str) -> Op:
    """A copy of ``op`` with a different outcome (test helper)."""
    return replace(op, outcome=outcome)


__all__ = ["History", "NemesisNote", "Op", "RecordingClient",
           "with_outcome"]
