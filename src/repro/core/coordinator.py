"""The query front-end.

"The queries are first sent to a coordinating compute node, and the
underlying cooperating cache is then searched on the input key to find a
replica of the precomputed results.  Upon a hit, the results are
transmitted directly back to the caller, whereas a miss would prompt the
coordinator to invoke the shoreline extraction service." (Sec. IV-A)

The coordinator is where virtual time is charged to queries: the hit path
pays dispatch + lookup + result transfer; the miss path pays the service
execution plus whatever GBA's insert triggers (splits, allocations) — so
overflow overhead lands on the query that caused it, which is how Fig. 4's
spikes become visible in per-step latency.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

from repro.cloud.network import NetworkModel
from repro.core.config import ExperimentTimings
from repro.core.metrics import MetricsRecorder
from repro.core.record import CacheRecord
from repro.sim.clock import SimClock


class CacheProtocol(Protocol):
    """What the coordinator needs from a cache (elastic or static)."""

    def get(self, key: int) -> CacheRecord | None: ...
    def put(self, key: int, value, nbytes: int) -> list: ...
    def record_query(self, key: int) -> None: ...
    def end_time_slice(self) -> tuple: ...
    @property
    def node_count(self) -> int: ...
    @property
    def used_bytes(self) -> int: ...
    @property
    def capacity_bytes(self) -> int: ...


class ServiceProtocol(Protocol):
    """What the coordinator needs from a service."""

    def execute(self, key: int): ...


class QueryOutcome(NamedTuple):
    """One completed query, as seen by the caller.

    Immutable (assignment raises ``AttributeError``) and, unlike a frozen
    dataclass, built by a single ``tuple.__new__`` — one per query.
    """

    key: int
    hit: bool
    latency_s: float
    value: object


class Coordinator:
    """Routes queries through the cache, invoking the service on misses.

    Parameters
    ----------
    cache:
        Elastic or static cooperative cache.
    service:
        The derived-data service (must advance the clock when executing;
        see :class:`~repro.services.base.Service`).
    clock, network, timings:
        Virtual-time machinery and the path-cost constants.
    metrics:
        Optional recorder; one is created if not given.
    """

    def __init__(
        self,
        *,
        cache: CacheProtocol,
        service: ServiceProtocol,
        clock: SimClock,
        network: NetworkModel,
        timings: ExperimentTimings = ExperimentTimings(),
        metrics: MetricsRecorder | None = None,
    ) -> None:
        self.cache = cache
        self.service = service
        self.clock = clock
        self.network = network
        self.timings = timings
        self.metrics = metrics or MetricsRecorder()

    def query(self, key: int) -> QueryOutcome:
        """Serve one request; advances the clock by its full latency."""
        t0 = self.clock.now
        self.cache.record_query(key)

        record = self.cache.get(key)
        if record is not None:
            # Hit: coordinator dispatch + node RPC + result transfer back.
            self.clock.advance(
                self.timings.hit_overhead_s
                + self.network.rpc_time(reply_bytes=record.nbytes)
            )
            hit, value = True, record.value
        else:
            # Miss: failed lookup, then the actual service execution, then
            # caching the derived result (which may split / allocate).
            self.clock.advance(self.timings.miss_overhead_s)
            result = self.service.execute(key)
            nbytes = getattr(result, "nbytes", self.timings.result_bytes)
            splits = self.cache.put(
                key, result, nbytes + self.timings.record_overhead_bytes
            )
            for event in splits:
                self.metrics.record_split(event.allocated)
            hit, value = False, result

        latency_s = self.clock.now - t0
        self.metrics.record_query(hit=hit, latency_s=latency_s)
        return QueryOutcome(key, hit, latency_s, value)

    def end_step(self, *, cost_usd: float | None = None) -> None:
        """Close one workload time step: slice expiry, metrics snapshot."""
        batch, removed, merge = self.cache.end_time_slice()
        if batch is not None:
            self.metrics.record_eviction(removed, batch.candidates)
        if merge is not None:
            self.metrics.record_merge()
        self.clock.tick_step()
        self.metrics.end_step(
            step=self.clock.step,
            node_count=self.cache.node_count,
            used_bytes=self.cache.used_bytes,
            capacity_bytes=self.cache.capacity_bytes,
            sim_time_s=self.clock.now,
            cost_usd=cost_usd if cost_usd is not None else 0.0,
        )
