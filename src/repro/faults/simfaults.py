"""Fault injection for the simulated elastic cache.

:class:`SimFaultInjector` interprets a :class:`~repro.faults.plan.FaultPlan`
in virtual time by scheduling each event on the sim's
:class:`~repro.sim.events.EventQueue`; :class:`FaultyCache` is a
drop-in :class:`~repro.core.coordinator.CacheProtocol` wrapper that
consults the injector on every ``get``/``put``:

* a ``get`` routed to a crashed/partitioned node reports a **miss** —
  the coordinator then recomputes, so a dead node costs latency, never
  correctness (the cache only ever holds derived results);
* a ``put`` routed to a dead node is **dropped** (nothing to store it
  on), again correctness-neutral because the caller already has the
  freshly computed value;
* ``flaky`` windows drop a random fraction of ops the same way, and
  ``lag`` windows charge extra virtual latency to every op.

Crash semantics are *data-loss* semantics: on ``recover`` the node's
records do not reappear (the wrapper purges the down interval from the
underlying store at crash time), matching a real instance loss where the
replacement boots cold and is repopulated by recomputes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.faults.plan import FaultEvent, FaultPlan


@dataclass
class SimFaultStats:
    """Counters the injector accumulates for assertions and reports."""

    crashes: int = 0
    recoveries: int = 0
    partitions: int = 0
    dropped_gets: int = 0
    dropped_puts: int = 0
    lost_records: int = 0
    lagged_ops: int = 0
    active_windows: list = field(default_factory=list)


class SimFaultInjector:
    """Applies a fault plan to a simulated cluster in virtual time.

    Parameters
    ----------
    cache:
        The :class:`~repro.core.elastic.ElasticCooperativeCache` (or any
        object exposing ``ring``/``nodes``) whose nodes the plan's
        ``node`` indices address, modulo the current node count.
    plan:
        The fault script (times are virtual seconds).
    queue:
        The sim event queue driving the experiment; crash/recover and
        window open/close become scheduled events on it.
    seed:
        Seed for the flaky-drop lottery.
    """

    def __init__(self, cache, plan: FaultPlan, queue, seed: int = 0) -> None:
        self.cache = cache
        self.plan = plan
        self.queue = queue
        self.clock = queue.clock
        self._rng = random.Random(seed)
        self.stats = SimFaultStats()
        self.down: set[int] = set()          # crashed node slots
        self.partitioned: set[int] = set()   # unreachable (no data loss)
        self.drop_frac = 0.0
        self.delay_s = 0.0
        plan.schedule(queue, self.apply)

    # ----------------------------------------------------------- plan ops

    def apply(self, event: FaultEvent) -> None:
        """Interpret one fault event (called by the event queue)."""
        kind = event.kind
        if kind == "crash":
            self.down.add(event.node)
            self.stats.crashes += 1
            self._lose_records(event.node)
        elif kind == "recover":
            self.down.discard(event.node)
            self.partitioned.discard(event.node)
            self.stats.recoveries += 1
        elif kind == "partition":
            self.partitioned.add(event.node)
            self.stats.partitions += 1
            if event.duration:
                self.queue.schedule(
                    event.duration,
                    lambda n=event.node: self.partitioned.discard(n),
                    tag="fault:heal")
        elif kind == "heal":
            self.partitioned.discard(event.node)
        elif kind in ("flaky", "garble"):
            # In the sim a garbled frame and a dropped frame are the same
            # observable: the op fails and falls back to recompute.
            frac = event.drop_frac or event.garble_frac
            self.drop_frac = frac
            if event.duration:
                self.queue.schedule(event.duration, self._clear_drop,
                                    tag="fault:clear")
        elif kind == "lag":
            self.delay_s = event.delay_s
            if event.duration:
                self.queue.schedule(event.duration, self._clear_lag,
                                    tag="fault:clear")

    def _clear_drop(self) -> None:
        self.drop_frac = 0.0

    def _clear_lag(self) -> None:
        self.delay_s = 0.0

    # -------------------------------------------------------- fault tests

    def _node_slot(self, key: int) -> int:
        """Which plan slot serves ``key`` (index into live node list)."""
        nodes = self.cache.nodes
        owner = self.cache.ring.node_for_key(key)
        for i, node in enumerate(nodes):
            if node is owner:
                return i
        return 0  # pragma: no cover - owner always registered

    def _unreachable(self, slot: int) -> bool:
        n = len(self.cache.nodes)
        reduced = {d % n for d in self.down | self.partitioned}
        return slot in reduced

    def _lose_records(self, slot_raw: int) -> None:
        """Crash = instance loss: purge the victim node's records so a
        later ``recover`` comes back cold (no stale resurrection)."""
        nodes = self.cache.nodes
        node = nodes[slot_raw % len(nodes)]
        victims = [rec.key for _, rec in node.items()]
        self.stats.lost_records += self.cache.evict_keys(victims)

    def op_faulted(self, key: int, op: str) -> bool:
        """Decide whether this op is swallowed by an active fault; also
        charges lag latency for slow-path windows."""
        if self.delay_s:
            self.clock.advance(self.delay_s)
            self.stats.lagged_ops += 1
        slot = self._node_slot(key)
        if self._unreachable(slot):
            if op == "get":
                self.stats.dropped_gets += 1
            else:
                self.stats.dropped_puts += 1
            return True
        if self.drop_frac and self._rng.random() < self.drop_frac:
            if op == "get":
                self.stats.dropped_gets += 1
            else:
                self.stats.dropped_puts += 1
            return True
        return False


class FaultyCache:
    """A :class:`~repro.core.coordinator.CacheProtocol` adapter that
    filters ops through a :class:`SimFaultInjector`.

    Wrap the cache, hand the wrapper to the coordinator, and the fault
    plan plays out against an otherwise unchanged experiment::

        injector = SimFaultInjector(cache, plan, queue)
        coord = Coordinator(cache=FaultyCache(cache, injector), ...)
    """

    def __init__(self, cache, injector: SimFaultInjector) -> None:
        self.inner = cache
        self.injector = injector

    # fault-filtered ops ---------------------------------------------------

    def get(self, key: int):
        if self.injector.op_faulted(key, "get"):
            return None
        return self.inner.get(key)

    def put(self, key: int, value, nbytes: int) -> list:
        if self.injector.op_faulted(key, "put"):
            return []
        return self.inner.put(key, value, nbytes)

    # transparent pass-throughs -------------------------------------------

    def record_query(self, key: int) -> None:
        self.inner.record_query(key)

    def end_time_slice(self):
        return self.inner.end_time_slice()

    @property
    def node_count(self) -> int:
        return self.inner.node_count

    @property
    def used_bytes(self) -> int:
        return self.inner.used_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.inner.capacity_bytes

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
