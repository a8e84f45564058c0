"""A live coordinator: the full query loop over the TCP cluster.

This is the real-network analogue of :class:`repro.core.coordinator.Coordinator`:
route the key through the cluster's consistent-hash ring, serve hits from
the wire, compute misses with a real service, cache the derived bytes —
and when a server reports **overflow**, grow the cluster with a live
Algorithm-2 split (boot a fresh server, split the overflowing bucket at
its interval midpoint, migrate the lower half over TCP).

A sliding window (the same
:class:`~repro.core.sliding_window.SlidingWindowEvictor`) drives eviction
over the wire at slice boundaries.  The cluster grows against real
sockets end to end, but it never contracts: the live coordinator has no
merge step yet, so the paper's contraction runs only in the simulator.

Failure hardening
-----------------
The coordinator treats the cluster as EC2 treated the paper's nodes: as
something that dies.  Transport errors on the query path enter **degraded
mode** — the result is recomputed (always correct: the cache only holds
derived bytes) and the shard's health is charged to a
:class:`~repro.faults.detector.FailureDetector`.  When a shard crosses
the consecutive-error threshold the coordinator **fails over**: the dead
server's buckets are re-assigned to their ring successors
(:meth:`~repro.live.client.LiveClusterClient.fail_server` — the
failure-time analogue of Algorithm 2's migration) and routing continues
without it.  :meth:`check_recovery` pings failed addresses and, when one
answers again (process restarted on the same port), re-admits it and
migrates the records recomputed during the outage back home.

Overload hardening
------------------
Saturation is handled as deliberately as death.  A per-server
:class:`~repro.faults.breaker.CircuitBreaker` fast-fails queries at a
shard that keeps erroring — degraded recompute without burning a
connect timeout per query.  An optional per-query ``deadline_ms``
budget propagates coordinator → client → wire, so a saturated server
drops work its caller already abandoned (counted as deadline misses,
answered by recompute).  A server that *sheds* (admission queue full)
is not treated as dead — shedding is back-pressure, not failure — the
query degrades to recompute and the breaker/detector stay untouched.
Priority ordering: user-facing queries always get recompute; background
(prefetch/warm) traffic is tagged ``priority=background`` on the wire,
shed first by the server, and simply *dropped* by the coordinator when
the cluster is degraded or overloaded.

Every outcome above is counted once, in the coordinator's
:class:`LiveQueryStats` (``coordinator.stats``).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Callable

from repro.core.config import EvictionConfig
from repro.core.sliding_window import SlidingWindowEvictor
from repro.faults.breaker import CircuitBreaker
from repro.faults.detector import FailureDetector
from repro.live.client import LiveClusterClient, _expiry, _remaining_ms
from repro.live.protocol import (OK, PING, CapacityError, DeadlineError,
                                 Frame, OverloadedError, ProtocolError,
                                 recv_frame, send_frame)
from repro.live.replica import ReplicaWriteError
from repro.live.server import LiveCacheServer


@dataclass
class LiveQueryStats:
    """Counters for one live session."""

    queries: int = 0
    hits: int = 0
    misses: int = 0
    evicted: int = 0
    grown_servers: int = 0
    migrated_records: int = 0
    # failure-path counters
    degraded_queries: int = 0
    replica_hits: int = 0        #: degraded queries served from a buddy copy
    failovers: int = 0
    recoveries: int = 0
    recovered_records: int = 0
    dropped_writes: int = 0
    unreplicated_writes: int = 0  #: fills the primary holds but no buddy
    downtime_s: float = 0.0
    # overload-path counters
    overloaded: int = 0          #: queries the cluster shed (recomputed)
    shed_background: int = 0     #: background requests dropped outright
    breaker_fastfails: int = 0   #: queries short-circuited by an open breaker
    deadline_misses: int = 0     #: queries whose deadline budget expired

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from the cluster."""
        return self.hits / self.queries if self.queries else 0.0

    @property
    def availability(self) -> float:
        """Fraction of queries served on the fast (non-degraded) path."""
        if not self.queries:
            return 1.0
        return 1.0 - self.degraded_queries / self.queries


class _BreakerOpen(Exception):
    """The owner's circuit breaker refused a query (raised by
    :class:`_BreakerGate` inside the cluster's routed ``get``)."""


class _BreakerGate:
    """One query's ``gate`` for :meth:`LiveClusterClient.get`: it keeps
    the owner address the get resolved (under its topology hold, by its
    one ring lookup) and refuses the request when that owner's breaker
    is open.  Every outcome of the query is charged to that address."""

    __slots__ = ("breaker", "address")

    def __init__(self, breaker: CircuitBreaker) -> None:
        self.breaker = breaker
        self.address: tuple[str, int] | None = None

    def __call__(self, address: tuple[str, int]) -> None:
        self.address = address
        if not self.breaker.allow(address):
            raise _BreakerOpen(address)


class LiveCoordinator:
    """Query front-end over a :class:`LiveClusterClient`.

    Its only counters are :attr:`stats`, one :class:`LiveQueryStats`;
    a benchmark that wants a timeline snapshots it at window
    boundaries.

    Parameters
    ----------
    cluster:
        The routed cluster client.
    compute:
        ``key -> bytes``: the derived-data computation run on misses
        (e.g. ``lambda k: service.compute(k)[0]``).  Because results are
        *derived*, this is also the degraded-mode fallback when a shard
        is unreachable — a dead cache node costs latency, never
        correctness.
    spawn_server:
        Zero-arg factory booting a fresh :class:`LiveCacheServer` when an
        overflow demands growth.  ``None`` disables elasticity (overflows
        then raise).
    eviction:
        Optional sliding-window config; slices are closed by
        :meth:`end_slice`.
    detector:
        Failure detector; defaults to a 2-consecutive-error threshold.
        The per-server circuit breaker (:attr:`breaker`, 1 s reset
        timeout) is built on it, so breaker and failover decisions see
        the same evidence once.
    deadline_ms:
        Default per-query time budget, propagated to every wire op this
        query performs (each op gets the *remaining* budget).  ``None``
        disables deadline propagation.
    health_every:
        Ping-based health sweep (plus recovery probe) every N queries;
        0 disables the in-band sweep — errors and explicit
        :meth:`health_check` calls still drive detection.
    on_event:
        Optional observer ``(event, detail) -> None`` called at
        lifecycle transitions: ``shed``, ``deadline_miss``,
        ``breaker_fastfail``, ``degraded``, ``failover``, ``recovery``
        and ``grow``.  The consistency harness uses this to interleave
        coordinator decisions into recorded histories
        (:meth:`repro.check.history.History.note`); observers must be
        cheap and exceptions they raise are swallowed — annotation must
        never alter the query path it annotates.
    """

    #: transport-level exceptions that trigger degraded mode
    FAILURES = (ProtocolError, OSError)

    def __init__(
        self,
        cluster: LiveClusterClient,
        compute: Callable[[int], bytes],
        spawn_server: Callable[[], LiveCacheServer] | None = None,
        eviction: EvictionConfig | None = None,
        detector: FailureDetector | None = None,
        deadline_ms: float | None = None,
        health_every: int = 0,
        on_event: Callable[[str, str], None] | None = None,
    ) -> None:
        self.cluster = cluster
        self.compute = compute
        self.spawn_server = spawn_server
        self.evictor = (SlidingWindowEvictor(eviction)
                        if eviction is not None and eviction.enabled else None)
        self.detector = detector if detector is not None else FailureDetector()
        self.breaker = CircuitBreaker(detector=self.detector)
        self.deadline_ms = deadline_ms
        self.health_every = health_every
        self.on_event = on_event
        self.stats = LiveQueryStats()
        self.spawned: list[LiveCacheServer] = []

    def _emit(self, event: str, detail: str) -> None:
        """Notify the lifecycle observer; never let it hurt the query."""
        if self.on_event is None:
            return
        try:
            self.on_event(event, detail)
        except Exception:  # noqa: BLE001 - observer bugs stay observer bugs
            pass

    # ------------------------------------------------------------- queries

    def query(self, key: int, priority: str = "user") -> bytes | None:
        """Serve one request, computing and caching on miss.

        User-facing traffic (``priority="user"``, the default) never
        raises on shard loss or overload: transport failures degrade to
        recompute, sheds and deadline misses recompute too, and a
        failing shard is routed around once the failure detector
        condemns it.  Background traffic (``priority="background"`` —
        prefetch/warm fills) is the first thing sacrificed in degraded
        or overloaded conditions: it is tagged on the wire so the server
        sheds it early, and any failure *drops* it (returns ``None``)
        instead of spending recompute on it.

        The cache fill after a miss only grows the cluster on the
        primary's ``OVERFLOW`` refusal; with no ``spawn_server`` that
        refusal raises.  A fill the primary applied but whose buddy copy
        failed (a full replica namespace, say) is cached: it returns the
        value and counts in ``unreplicated_writes``.  Any other failed
        fill (shed, deadline, transport) returns the computed value and
        counts in ``dropped_writes`` — or, for background traffic,
        returns ``None`` and counts in ``shed_background``.
        """
        if (self.health_every and self.stats.queries
                and self.stats.queries % self.health_every == 0):
            self.health_check()
        self.stats.queries += 1
        expires_at = _expiry(self.deadline_ms)
        background = priority == "background"
        if self.evictor is not None:
            self.evictor.record(key)
        route = _BreakerGate(self.breaker)
        try:
            cached = self.cluster.get(
                key, deadline_ms=_remaining_ms(expires_at),
                priority="background" if background else None, gate=route)
        except _BreakerOpen:
            # Open breaker: fast-fail to the fallback without burning a
            # connect timeout against a shard we expect to be dead.
            addr = route.address
            self.stats.breaker_fastfails += 1
            self._emit("breaker_fastfail", f"{addr[0]}:{addr[1]}")
            if background:
                return self._drop_background()
            return self._query_degraded(key, addr, expires_at)
        except OverloadedError:
            # Back-pressure from a *live* server: nothing is charged to
            # the detector or breaker — shedding is how the node asks
            # for elastic growth, not a symptom of death.
            addr = route.address
            self.stats.overloaded += 1
            self._emit("shed", f"key {key} shed by {addr[0]}:{addr[1]}")
            if background:
                return self._drop_background()
            return self._recompute(key, expires_at)
        except DeadlineError:
            addr = route.address
            self.stats.deadline_misses += 1
            self._emit("deadline_miss", f"key {key} at {addr[0]}:{addr[1]}")
            if background:
                return self._drop_background()
            return self._recompute(key, expires_at)
        except self.FAILURES:
            addr = route.address
            self.breaker.record_failure(addr)
            if background:
                return self._drop_background()
            return self._query_degraded(key, addr, expires_at)
        addr = route.address
        self.breaker.record_success(addr)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        value = self.compute(key)
        # Without a spawner the primary's overflow must surface:
        # elasticity (or its absence) is the caller's decision.  Any
        # other failed fill costs a future miss, never the answer.
        try:
            self._put_with_growth(key, value,
                                  deadline_ms=_remaining_ms(expires_at))
        except ReplicaWriteError:
            self.stats.unreplicated_writes += 1
        except self.FAILURES as exc:
            if self.spawn_server is None and isinstance(exc, CapacityError):
                raise
            if background:
                return self._drop_background()
            self.stats.dropped_writes += 1
        return value

    def prefetch(self, key: int) -> bool:
        """Warm the cache with background priority; ``True`` if the key
        is now cached (``False`` when the attempt was shed/dropped —
        prefetch is exactly the traffic overload protection sacrifices
        first)."""
        return self.query(key, priority="background") is not None

    # ----------------------------------------------------- fallback paths

    def _drop_background(self) -> None:
        """Shed a background request outright (no recompute)."""
        self.stats.shed_background += 1
        return None

    def _store_after_compute(self, key: int, value: bytes,
                             expires_at: float | None) -> None:
        """Best-effort cache fill after a recompute; a failed or shed
        write costs a future miss, never correctness."""
        try:
            self._put_with_growth(key, value,
                                  deadline_ms=_remaining_ms(expires_at))
        except ReplicaWriteError:
            self.stats.unreplicated_writes += 1
        except self.FAILURES:
            self.stats.dropped_writes += 1

    def _recompute(self, key: int, expires_at: float | None) -> bytes:
        """Recompute for a shed/expired request — the shard is alive,
        so this is not charged as a degraded (availability) event."""
        self.stats.misses += 1
        value = self.compute(key)
        self._store_after_compute(key, value, expires_at)
        return value

    def _query_degraded(self, key: int, addr: tuple[str, int],
                        expires_at: float | None) -> bytes:
        """The slow-but-correct path: shard unreachable (the caller has
        already charged the evidence, if any).  With replication on, the
        buddy's copy is consulted (and read-repaired toward the owner)
        before paying for a recompute — the paper's "transient data
        availability" case; without one, recompute."""
        self.stats.degraded_queries += 1
        if self.detector.is_down(addr):
            self._fail_over(addr)
        value = self.cluster.replica_read(
            key, deadline_ms=_remaining_ms(expires_at))
        if value is not None:
            self.stats.hits += 1
            self.stats.replica_hits += 1
            self._emit("replica_hit", f"key {key} served from buddy of "
                                      f"{addr[0]}:{addr[1]}")
            return value
        self.stats.misses += 1
        self._emit("degraded", f"key {key} recomputed around "
                               f"{addr[0]}:{addr[1]}")
        value = self.compute(key)
        # After a repair the write routes to the surviving owner and
        # repopulates; before one it may fail again — that's fine, the
        # computed value is already in hand.
        self._store_after_compute(key, value, expires_at)
        return value

    def _put_with_growth(self, key: int, value: bytes, max_growths: int = 4,
                         deadline_ms: float | None = None) -> None:
        for _ in range(max_growths):
            try:
                self.cluster.put(key, value, deadline_ms=deadline_ms)
                return
            except CapacityError:
                if self.spawn_server is None:
                    raise
            # Midpoint splits halve the interval, not necessarily the
            # bytes, so a skewed interval may need more than one growth.
            self._grow_for(key)
        self.cluster.put(key, value, deadline_ms=deadline_ms)

    def _grow_for(self, key: int) -> None:
        """Live Algorithm 2: split the overflowing bucket's interval."""
        hkey = self.cluster.ring.hash_key(key)
        bucket = self.cluster.ring.bucket_for_hkey(hkey)
        lo, hi = self.cluster.ring.interval_segments(bucket)[-1]
        split = (lo + hi) // 2
        if split == hi or split in self.cluster.ring.node_map:
            raise ProtocolError(f"bucket {bucket} too narrow to split")
        server = self.spawn_server()
        self.spawned.append(server)
        moved = self.cluster.add_server(server.address, split)
        self.stats.grown_servers += 1
        self.stats.migrated_records += moved
        self._emit("grow", f"bucket split at {split}, {moved} migrated")

    # ------------------------------------------------------------ failures

    def _fail_over(self, addr: tuple[str, int]) -> bool:
        """Repair the ring around a condemned shard; True on success."""
        if addr not in self.cluster.clients:
            return False  # already repaired (or never admitted)
        try:
            self.cluster.fail_server(addr)
        except ValueError:
            # Last server standing: nothing to route to; stay degraded
            # (every query recomputes) until it comes back.
            return False
        self.stats.failovers += 1
        self._emit("failover", f"{addr[0]}:{addr[1]} condemned, ring repaired")
        return True

    def health_check(self) -> list[tuple[str, int]]:
        """Ping every live shard, fail over the ones past threshold, and
        probe failed shards for recovery.  Returns newly condemned
        addresses."""
        condemned: list[tuple[str, int]] = []
        for addr, client in list(self.cluster.clients.items()):
            try:
                client.ping()
            except self.FAILURES:
                self.breaker.record_failure(addr)
                if self.detector.is_down(addr) and self._fail_over(addr):
                    condemned.append(addr)
            else:
                self.breaker.record_success(addr)
        self.check_recovery()
        return condemned

    @staticmethod
    def _probe(addr: tuple[str, int], timeout: float = 0.5) -> bool:
        """One raw connect+ping, no retry — is anything listening?"""
        try:
            with socket.create_connection(tuple(addr), timeout=timeout) as s:
                send_frame(s, Frame(PING))
                return recv_frame(s).code == OK
        except (ProtocolError, OSError):
            return False

    def check_recovery(self) -> list[tuple[str, int]]:
        """Probe failed-over addresses; re-admit any that answer again.

        Re-admission migrates the records recomputed during the outage
        from the interim owners back to the restored server
        (:meth:`~repro.live.client.LiveClusterClient.restore_server`),
        so the ring heals without manual intervention.  Returns the
        recovered addresses.
        """
        recovered: list[tuple[str, int]] = []
        for addr in list(self.cluster.failed_servers):
            if not self._probe(addr):
                continue
            moved = self.cluster.restore_server(addr)
            self._emit("recovery", f"{addr[0]}:{addr[1]} re-admitted, "
                                   f"{moved} records home")
            self.stats.downtime_s += self.detector.mark_recovered(addr)
            self.breaker.record_success(addr)  # close any open breaker
            self.stats.recoveries += 1
            self.stats.recovered_records += moved
            recovered.append(addr)
        return recovered

    # -------------------------------------------------------------- slices

    def end_slice(self) -> int:
        """Close a time slice; evict scored-out keys over the wire."""
        if self.evictor is None:
            return 0
        batch = self.evictor.end_slice()
        removed = 0
        for key in batch.evicted_keys:
            if self.cluster.delete(key):
                removed += 1
        self.stats.evicted += removed
        return removed

    # ------------------------------------------------------------ teardown

    def stop_spawned(self) -> None:
        """Shut down servers this coordinator booted."""
        for server in self.spawned:
            server.stop()
        self.spawned.clear()
