"""The live-cluster workloads: ``live-read``, ``live-elastic``, ``live-batch``.

Servers are child processes (:mod:`servers`); the load comes from this
process.  ``live-read`` and ``live-elastic`` are open loop on one sender
thread: request ``i`` is due at ``start + i / rate`` and its latency runs
from that due time, so a slow request also charges the requests queued
behind it.  ``live-read`` ends with a closed-loop stretch on the same
thread, which measures the read path's capacity.  ``live-batch`` is
closed loop on two threads, each with its own cluster client (so at
most two connections per server).

Each run sets up a fresh cluster, measures it and tears it down
``PASSES`` times, every pass issuing the same requests.  Each request's
or call's time is read at the reference host's speed: divided by how
much slower than that host the CPUs it ran on were around it
(``common.slowness``), from the load generator's own probes
(``common.Prober``) and the server CPUs' idle spinners
(``common.StallWatch``).  A run reports the median over the passes of
each pass's p50.  Its p99 is taken over each request's lowest latency
over the passes (open loops) or is the lowest pass's (live-batch): a
hiccup of the host that the spinners cannot see (it struck while a
process of the program held the CPU) backs up a run of 20-60 requests
of an open loop, at another place in each pass, and in a noisy hour
most passes have one, which moves a pass's p99 by up to tenfold.  The
program's own slow steps (growth, ``end_slice``, its collector) come
with the requests, which every pass repeats, so they stay.  Rates pool
every pass; every other metric is the median over the passes.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import servers
from common import (CPUS, Outcome, Prober, StallWatch, percentile,
                    slowness, speed_report, stall_overlap_s, stall_report,
                    value_for)

#: set-up + measured passes per run; four set-ups give ``setup_s`` its
#: median, and four stretches spread over the run meet more of the
#: host's moods than one
PASSES = 4
#: live-read's passes: shorter and more of them, so that each request's
#: lowest latency is seldom caught in a host hiccup
READ_PASSES = 6

# live-read / live-batch: a warm 3-server cluster the working set fits.
READ_KEYS = 16_384
READ_VALUE = 1024
READ_CAPACITY = 64 << 20
READ_SERVERS = 3
#: keys with ``key % COLD_EVERY == COLD_EVERY - 1`` are left cold
COLD_EVERY = 16
#: every ``MISS_EVERY``-th live-read query asks for a cold key not asked
#: before in its pass, so misses are a fixed share of the queries and
#: the p99 sits well inside them rather than on the edge of the hits'
#: tail, where the seed would move it
MISS_EVERY = 25
ZIPF_S = 1.0
#: the open-loop rate (queries/s) and its share of a pass's seconds;
#: at about a quarter of the read path's capacity, so it measures the
#: path rather than a queue
READ_RATE = 2000
READ_SHARE = 0.7
#: then the sender runs flat out (closed loop) for this share: its
#: achieved rate is the read path's capacity, the ceiling of any rate an
#: open loop can sustain.  A ladder of fixed rates would only resolve it
#: to the nearest rung.
SATURATED_SHARE = 0.25
#: more keys per second than the read path can serve flat out
SATURATED_KEYS_PER_S = 50_000
#: an open loop whose sender falls this far behind is abandoned; the
#: requests it never sent count as refused
ABANDON_LAG_S = 0.25
#: the latency a refused or failed request counts as: past any limit
REFUSED_LATENCY_US = 1e6
#: the open-loop sender probes its CPU only while it has this much time
#: to spare before the next request is due
PROBE_SLACK_S = 0.0003
#: ``LiveQueryStats`` counters of queries the cluster did not serve as
#: asked (shed, deadline miss, breaker fast-fail, degraded, write dropped);
#: the coordinator recomputes those, so the answer alone cannot show them
REFUSALS = ("overloaded", "deadline_misses", "breaker_fastfails",
            "degraded_queries", "dropped_writes")

# live-elastic: one small cold server, spares booted in set-up, a phased
# key stream over a keyspace several times the first server's capacity.
ELASTIC_KEYS = 4096
ELASTIC_VALUE = 512
ELASTIC_CAPACITY = 100 << 10
ELASTIC_SPARES = 5
ELASTIC_WINDOW = 20
#: (queries per slice, slices): normal, intensive, cooldown
ELASTIC_PHASES = ((5, 30), (25, 60), (5, 40))
ELASTIC_RATE = 400

# live-batch: closed loop, 4 get_many : 1 put_many at batch 64.
BATCH_THREADS = 2
BATCH_SIZE = 64
BATCH_PUT_EVERY = 5

#: share of ``seconds`` each phase of a traced run measures
TRACED_SHARE = 0.3


def _pin() -> dict:
    """Pin this process, the load generator, to the first CPU; returns the
    server-child config that pins the servers to the others, so every run
    places them alike.  Left to the scheduler, live-read's p50 read about
    105 us in some runs and about 145 us in others of the same set."""
    if len(CPUS) < 2:
        return {}
    os.sched_setaffinity(0, {CPUS[0]})
    return {"cpus": CPUS[1:], "boot_cpus": CPUS}


@dataclass
class Cluster:
    """A booted cluster and what it takes to tear it down."""

    handles: list
    cluster: object
    coordinator: object
    pool: servers.SparePool | None = None
    clients: list = field(default_factory=list)

    def close(self) -> list[dict]:
        """Close clients and stop every server; returns child reports."""
        for client in [self.cluster, *self.clients]:
            client.close()
        spawned = list(self.coordinator.spawned)
        self.coordinator.spawned.clear()
        reports = servers.stop_all([*self.handles, *spawned])
        if self.pool is not None:
            self.pool.close()
        return reports


def _kill_all(handles) -> None:
    for handle in handles:
        handle.kill()


def _warm_keys() -> np.ndarray:
    keys = np.arange(READ_KEYS)
    return keys[keys % COLD_EVERY != COLD_EVERY - 1]


def _cold_keys() -> np.ndarray:
    keys = np.arange(READ_KEYS)
    return keys[keys % COLD_EVERY == COLD_EVERY - 1]


def _zipf_ranks(rng: np.random.Generator, n_keys: int, size: int
                ) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_S
    return rng.choice(n_keys, size=size, p=weights / weights.sum())


# ------------------------------------------------------------------ set-up


def _read_setup(child: dict, compute) -> Cluster:
    """``child``: extra server-child config (``{"trace": True}``)."""
    from repro.live.client import LiveClusterClient
    from repro.live.coordinator import LiveCoordinator

    handles = servers.boot(READ_SERVERS, {"capacity_bytes": READ_CAPACITY,
                                          **child})
    try:
        cluster = LiveClusterClient([h.address for h in handles],
                                    ring_range=READ_KEYS)
        items = [(k, value_for(k, READ_VALUE))
                 for k in _warm_keys().tolist()]
        for i in range(0, len(items), 1024):
            chunk = items[i:i + 1024]
            if cluster.put_many(chunk) != len(chunk):
                raise RuntimeError("warm-up put_many was not fully acked")
        coordinator = LiveCoordinator(cluster, compute=compute)
    except BaseException:
        _kill_all(handles)
        raise
    return Cluster(handles, cluster, coordinator)


def _elastic_setup(child: dict, compute) -> Cluster:
    from repro.core.config import EvictionConfig
    from repro.live.client import LiveClusterClient
    from repro.live.coordinator import LiveCoordinator

    config = {"capacity_bytes": ELASTIC_CAPACITY, "replica_headroom": 2.0,
              **child}
    # The first server and the spares boot together.
    handles = servers.boot(1 + ELASTIC_SPARES, config)
    pool = servers.SparePool(handles[1:], config)
    handles = handles[:1]
    try:
        cluster = LiveClusterClient([h.address for h in handles],
                                    ring_range=ELASTIC_KEYS,
                                    replication=True)
        coordinator = LiveCoordinator(
            cluster, compute=compute, spawn_server=pool.spawn,
            eviction=EvictionConfig(window_slices=ELASTIC_WINDOW))
    except BaseException:
        _kill_all(handles)
        pool.close()
        raise
    return Cluster(handles, cluster, coordinator, pool=pool)


def _passes(setup, compute, measure, passes: int = PASSES
            ) -> tuple[list, dict[str, float]]:
    """Set up a cluster, ``measure(cluster)`` it and tear it down
    ``passes`` times; returns what each ``measure`` returned, and the
    median ``setup_s`` and ``rss_mb`` over the passes."""
    results, setups, rss = [], [], []
    child = _pin()
    for _ in range(passes):
        t0 = time.perf_counter()
        cluster = setup(child, compute)
        setups.append(time.perf_counter() - t0)
        try:
            results.append(measure(cluster))
        finally:
            rss.append(_rss(cluster.close()))
    return results, {"setup_s": statistics.median(setups),
                     "rss_mb": statistics.median(rss)}


def _speed_traces(prober: Prober, watch: StallWatch) -> list:
    """The load generator's CPU, from its probes, and each server CPU,
    from its spinner (on one CPU, the probes alone)."""
    return [prober.trace(), *(watch.speed[cpu] for cpu in CPUS[1:])]


def _median(values) -> float:
    return float(statistics.median(values))


# ------------------------------------------------------------- open loop


@dataclass
class QuerySamples:
    """Per-request times of one stretch of queries (``perf_counter`` s)."""

    due: array = field(default_factory=lambda: array("d"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    miss: array = field(default_factory=lambda: array("b"))
    refused: array = field(default_factory=lambda: array("b"))
    #: each request's latency (s) with the host's stalls taken out
    corrected: list = field(default_factory=list)
    #: how much slower than the reference host its CPUs ran around each
    #: request (1.0 until ``drive`` sets it)
    slowness: np.ndarray | None = None
    raised: int = 0
    unsent: int = 0
    hits: int = 0
    elapsed_s: float = 0.0

    @property
    def done(self) -> int:
        return len(self.due)

    @property
    def attempted(self) -> int:
        return self.done + self.raised + self.unsent

    @property
    def failed(self) -> int:
        """Requests not served as asked: refused, raised or never sent."""
        return sum(self.refused) + self.raised + self.unsent

    def take_out_stalls(self, stalls) -> float:
        """Replay the requests as if the host had never stalled; returns
        the seconds of latency that removes.

        Each request keeps its own service time and the sender's gap
        before it, less any stall inside them, and still waits for the
        request before it.  So the backlog a stall leaves drains away,
        while a slow growth step keeps charging the requests queued
        behind it.
        """
        self.corrected = []
        removed = 0.0
        prev_end = prev_end_v = float("-inf")
        for due, start, end in zip(self.due, self.start, self.end):
            ready = max(due, prev_end)
            gap = start - ready - stall_overlap_s(stalls, ready, start)
            service = end - start - stall_overlap_s(stalls, start, end)
            end_v = max(due, prev_end_v) + gap + service
            self.corrected.append(end_v - due)
            removed += end - end_v
            prev_end, prev_end_v = end, end_v
        return removed

    def latency(self) -> np.ndarray:
        """Latencies (us) from due time, read at the reference host's
        speed, of the served requests in order and then one per request
        that raised or was never sent; a refused, raised or unsent
        request counts as ``REFUSED_LATENCY_US``."""
        lat = np.asarray(self.corrected, dtype=float) * 1e6
        if self.slowness is not None:
            lat = lat / self.slowness
        lat[np.frombuffer(self.refused, dtype=np.int8) != 0] = \
            REFUSED_LATENCY_US
        return np.concatenate(
            [lat, np.full(self.raised + self.unsent, REFUSED_LATENCY_US)])

    def missed(self) -> np.ndarray:
        """Which entries of :meth:`latency` were misses."""
        miss = np.frombuffer(self.miss, dtype=np.int8) != 0
        return np.concatenate(
            [miss, np.zeros(self.raised + self.unsent, dtype=bool)])

    def late(self) -> list[float]:
        """How late (us) the sender issued each request."""
        return [(start - due) * 1e6
                for due, start in zip(self.due, self.start)]


def per_pass(passes: list[QuerySamples], q: float,
             misses: bool = False) -> np.ndarray:
    """Each pass's ``q``-th percentile latency (us), over its misses only
    with ``misses``."""
    return np.array([np.percentile(p.latency()[p.missed()] if misses
                                   else p.latency(), q) for p in passes])


def best_of_passes(passes: list[QuerySamples]) -> np.ndarray:
    """Each request's lowest latency (us) over passes that issued the same
    requests; a request refused or lost in any pass keeps
    ``REFUSED_LATENCY_US``."""
    lat = np.vstack([p.latency() for p in passes])
    best = lat.min(axis=0)
    best[(lat == REFUSED_LATENCY_US).any(axis=0)] = REFUSED_LATENCY_US
    return best


def closed_loop_rate(passes: list[QuerySamples]) -> float:
    """Requests per second of a closed loop: every pass's requests over
    their summed latencies, each read at the reference host's speed."""
    lat = np.concatenate([p.latency() for p in passes])
    return len(lat) / (lat.sum() / 1e6)


def drive(coordinator, keys, value_size: int, out: Outcome,
          rate: float | None = None, seconds: float | None = None,
          slice_ends=(), on_slice=None, tracer=None,
          abandon_lag_s: float | None = None) -> QuerySamples:
    """Issue ``coordinator.query(k)`` for each key under a
    :class:`StallWatch`.

    Open loop at ``rate``/s: request ``i`` is due at ``start + i / rate``.
    With ``rate=None`` it is closed loop instead: a request is due when
    the one before it returns, and the stretch ends after ``seconds``.
    ``slice_ends`` holds the indices after which the sender closes a
    time slice (``end_slice``, then ``on_slice()``).  Each answer must be
    exactly ``value_for(key)``.  The sender probes its CPU's speed
    between requests, never inside one.
    """
    from repro.live.protocol import ProtocolError

    stats = coordinator.stats
    query = coordinator.query
    clock = time.perf_counter
    ends = set(slice_ends)
    samples = QuerySamples()
    prober = Prober()

    def refusals() -> int:
        return sum(getattr(stats, name) for name in REFUSALS)

    with StallWatch() as watch:
        begin = clock() + (0.001 if rate is not None else 0.0)
        last = begin
        for i, key in enumerate(keys):
            if rate is None:
                prober.maybe()
                start = due = clock()
                if due - begin >= seconds:
                    break
            else:
                due = begin + i / rate
                now = clock()
                if due - now > PROBE_SLACK_S:
                    prober.maybe()
                    now = clock()
                if now < due:
                    if due - now > 0.0002:
                        time.sleep(due - now - 0.0002)
                    while clock() < due:
                        pass
                elif abandon_lag_s is not None and now - due > abandon_lag_s:
                    samples.unsent = len(keys) - i
                    break
                start = clock()
            if tracer is not None:
                tracer.set_seq(i)
            misses, refused = stats.misses, refusals()
            try:
                value = query(key)
            except (ProtocolError, OSError) as exc:
                samples.raised += 1
                out.check(False, f"query {key} raised {exc!r}")
                value = None
            last = clock()
            if value is not None:
                samples.due.append(due)
                samples.start.append(start)
                samples.end.append(last)
                missed = stats.misses != misses
                samples.miss.append(missed)
                samples.refused.append(refusals() != refused)
                samples.hits += not missed
                if value != value_for(key, value_size):
                    out.check(False, f"query {key} returned wrong bytes")
            if i in ends:
                coordinator.end_slice()
                if on_slice is not None:
                    on_slice()
    samples.elapsed_s = last - begin
    traces = _speed_traces(prober, watch)
    samples.slowness = slowness(traces, samples.due, samples.end)
    speed_report("closed loop" if rate is None else f"{rate:g} q/s", traces)
    stall_report("closed loop" if rate is None else f"{rate:g} q/s",
                 watch.stalls, samples.take_out_stalls(watch.stalls),
                 sum(e - d for d, e in zip(samples.due, samples.end)))
    return samples


def _compute(value_size: int, tracer=None):
    def compute(key: int) -> bytes:
        return value_for(key, value_size)
    if tracer is not None:
        return tracer.traced(compute, "coordinator.compute")
    return compute


def _rss(reports) -> float:
    """Peak RSS of the largest server child."""
    return max(r["rss_mb"] for r in reports)


# ------------------------------------------------------------- live-read


def _read_keys(seed: int, n: int, salt: int, first_cold: int) -> list[int]:
    """``n`` queries: Zipf-ranked warm keys over a seeded permutation, and
    in every ``MISS_EVERY``-th slot the next cold key of a seeded order,
    from the ``first_cold``-th on (wrapping round, when a pass asks for
    more than there are, into keys it has already filled)."""
    warm = _warm_keys()
    perm = np.random.default_rng([seed, 0]).permutation(warm)
    cold = np.random.default_rng([seed, 3]).permutation(_cold_keys())
    keys = perm[_zipf_ranks(np.random.default_rng([seed, salt]), len(warm),
                            n)]
    slots = np.arange(MISS_EVERY - 1, n, MISS_EVERY)
    keys[slots] = cold[(first_cold + np.arange(len(slots))) % len(cold)]
    return keys.tolist()


def _read_pass(cluster: Cluster, seed: int, seconds: float, out: Outcome,
               share: float = READ_SHARE, saturate: bool = True,
               tracer=None) -> tuple[QuerySamples, QuerySamples | None]:
    """The open loop at ``READ_RATE`` for ``share`` of ``seconds``, then
    (``saturate``) the closed-loop stretch."""
    n = max(1, int(READ_RATE * seconds * share))
    keys = _read_keys(seed, n, salt=1, first_cold=0)
    paced = drive(cluster.coordinator, keys, READ_VALUE, out,
                  rate=READ_RATE, tracer=tracer, abandon_lag_s=ABANDON_LAG_S)
    top = None
    if saturate:
        span = seconds * SATURATED_SHARE
        keys = _read_keys(seed, int(SATURATED_KEYS_PER_S * span), salt=2,
                          first_cold=n // MISS_EVERY)
        top = drive(cluster.coordinator, keys, READ_VALUE, out,
                    seconds=span, tracer=tracer)
    for samples in (paced, top):
        if samples is not None:
            out.attempted += samples.attempted
            out.failed += samples.failed
    return paced, top


def _run_read(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    seconds /= READ_PASSES
    results, out.metrics = _passes(
        _read_setup, _compute(READ_VALUE),
        lambda cluster: _read_pass(cluster, seed, seconds, out), READ_PASSES)
    paced = [p for p, _ in results]
    p50 = _median(per_pass(paced, 50))
    miss_p50 = _median(per_pass(paced, 50, misses=True))
    out.metrics.update({
        "query_p50_us": p50,
        "query_p99_us": np.percentile(best_of_passes(paced), 99),
        "miss_p50_us": miss_p50,
        "sustained_qps": closed_loop_rate([t for _, t in results]),
        "hit_rate": _median((p.hits + t.hits) / (p.done + t.done)
                            for p, t in results),
        "node_steps": _median(READ_SERVERS * (p.elapsed_s + t.elapsed_s)
                              for p, t in results),
        "speedup": miss_p50 / p50,
        "ok_rate": 1.0 - out.failed / out.attempted,
    })
    return out


# ---------------------------------------------------------- live-elastic


def _elastic_stream(seed: int) -> tuple[list[int], list[int]]:
    """Uniform keys over the phased schedule, and each slice's last index."""
    rng = np.random.default_rng([seed, 7])
    keys: list[int] = []
    ends: list[int] = []
    for per_slice, slices in ELASTIC_PHASES:
        for _ in range(slices):
            keys.extend(rng.integers(0, ELASTIC_KEYS, per_slice).tolist())
            ends.append(len(keys) - 1)
    return keys, ends


def _elastic_pass(cluster: Cluster, seed: int, out: Outcome, tracer=None):
    keys, ends = _elastic_stream(seed)
    coordinator = cluster.coordinator
    node_steps = 0

    def count_nodes() -> None:
        nonlocal node_steps
        node_steps += len(coordinator.cluster.clients)

    samples = drive(coordinator, keys, ELASTIC_VALUE, out,
                    rate=ELASTIC_RATE, slice_ends=ends,
                    on_slice=count_nodes, tracer=tracer)
    stats = coordinator.stats
    out.attempted += samples.attempted
    out.failed += samples.failed
    out.check(stats.hits + stats.misses == stats.queries == len(keys),
              "elastic hits + misses != queries")
    out.check(cluster.pool.cold_boots == 0,
              f"spare pool ran dry ({cluster.pool.cold_boots} cold boots)")
    return samples, node_steps


def _run_elastic(seed: int, seconds: float) -> Outcome:
    """A pass's length is fixed by the schedule, not by ``seconds``."""
    out = Outcome()
    results, out.metrics = _passes(
        _elastic_setup, _compute(ELASTIC_VALUE),
        lambda cluster: _elastic_pass(cluster, seed, out))
    passes = [samples for samples, _ in results]
    p50 = _median(per_pass(passes, 50))
    miss_p50 = _median(per_pass(passes, 50, misses=True))
    out.metrics.update({
        "query_p50_us": p50,
        "query_p99_us": np.percentile(best_of_passes(passes), 99),
        "miss_p50_us": miss_p50,
        "sustained_qps": _median(p.done / p.elapsed_s for p in passes),
        "hit_rate": _median(p.hits / p.done for p in passes),
        "node_steps": _median(float(n) for _, n in results),
        "speedup": miss_p50 / p50,
        "ok_rate": 1.0 - out.failed / out.attempted,
    })
    return out


# ------------------------------------------------------------ live-batch


def _batch_setup(child: dict, compute) -> Cluster:
    from repro.live.client import LiveClusterClient

    cluster = _read_setup(child, compute)
    try:
        cluster.clients = [
            LiveClusterClient([h.address for h in cluster.handles],
                              ring_range=READ_KEYS)
            for _ in range(BATCH_THREADS)]
    except BaseException:
        cluster.close()
        raise
    return cluster


@dataclass
class BatchSamples:
    """Every batch call as ``(thread, index, start, end, ok)``; ``ok`` is
    false for a call that raised or did not serve every key."""

    log: list = field(default_factory=list)
    keys: int = 0
    found: int = 0
    distinct: int = 0
    elapsed_s: float = 0.0
    stalls: list = field(default_factory=list)
    #: how much slower than the reference host its CPUs ran around each
    #: call, in ``log`` order (1.0 until ``_batch_pass`` sets it)
    slowness: np.ndarray | None = None

    @property
    def failed(self) -> int:
        return sum(not ok for *_, ok in self.log)

    def latency(self) -> np.ndarray:
        """Each call's latency (us) with the host's stalls taken out, read
        at the reference host's speed; a failed call reads
        ``REFUSED_LATENCY_US``."""
        lat = np.array([t1 - t0 - stall_overlap_s(self.stalls, t0, t1)
                        for _, _, t0, t1, _ in self.log], dtype=float) * 1e6
        if self.slowness is not None:
            lat = lat / self.slowness
        lat[~np.array([ok for *_, ok in self.log], dtype=bool)] = \
            REFUSED_LATENCY_US
        return lat

    def calls(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`latency`, the thread of each call, and whether it was a
        ``put_many``."""
        return (self.latency(),
                np.array([t for t, *_ in self.log], dtype=int),
                np.array([_is_put(i) for _, i, *_ in self.log], dtype=bool))


def _is_put(i: int) -> bool:
    return i % BATCH_PUT_EVERY == BATCH_PUT_EVERY - 1


def _batch_worker(thread: int, client, keys: list[int], seconds: float,
                  samples: BatchSamples, out: Outcome, lock,
                  prober: Prober) -> None:
    from repro.live.protocol import ProtocolError

    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    log = []
    calls = len(keys) // BATCH_SIZE
    stats = {"keys": 0, "found": 0, "distinct": 0}
    i = 0
    while clock() < deadline:
        batch = keys[(i % calls) * BATCH_SIZE:(i % calls + 1) * BATCH_SIZE]
        is_put = _is_put(i)
        i += 1
        t0 = clock()
        try:
            if is_put:
                acked = client.put_many(
                    [(k, value_for(k, READ_VALUE)) for k in batch])
            else:
                found = client.get_many(batch)
        except (ProtocolError, OSError) as exc:
            out.check(False, f"batch call raised {exc!r}")
            log.append((thread, i - 1, t0, clock(), False))
            continue
        t1 = clock()
        stats["keys"] += len(batch)
        if is_put:
            ok = acked == len(batch)
            out.check(ok, f"put_many acked {acked} of {len(batch)}")
        else:
            distinct = set(batch)
            stats["distinct"] += len(distinct)
            stats["found"] += len(found)
            ok = all(found.get(k) == value_for(k, READ_VALUE)
                     for k in distinct)
            out.check(ok, "get_many returned missing or wrong bytes")
        log.append((thread, i - 1, t0, t1, ok))
        prober.maybe()
    elapsed = clock() - start
    with lock:
        samples.log.extend(log)
        for name, n in stats.items():
            setattr(samples, name, getattr(samples, name) + n)
        samples.elapsed_s = max(samples.elapsed_s, elapsed)


def _batch_pass(cluster: Cluster, seed: int, seconds: float,
                out: Outcome) -> BatchSamples:
    """Both threads calling for ``seconds``."""
    warm = _warm_keys()
    perm = np.random.default_rng([seed, 0]).permutation(warm)
    # Enough distinct batches that no thread cycles within a run.
    per_thread = BATCH_SIZE * 4096
    samples = BatchSamples()
    lock = threading.Lock()
    prober = Prober()
    threads = []
    for t, client in enumerate(cluster.clients):
        rng = np.random.default_rng([seed, 100 + t])
        keys = perm[_zipf_ranks(rng, len(warm), per_thread)].tolist()
        threads.append(threading.Thread(
            target=_batch_worker,
            args=(t, client, keys, seconds, samples, out, lock, prober)))
    with StallWatch() as watch:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 60)
            out.check(not thread.is_alive(), "batch thread did not finish")
    samples.stalls = watch.stalls
    samples.log.sort(key=lambda call: call[2])
    traces = _speed_traces(prober, watch)
    samples.slowness = slowness(traces,
                                [t0 for _, _, t0, _, _ in samples.log],
                                [t1 for _, _, _, t1, _ in samples.log])
    speed_report("batch", traces)
    stall_report("batch", watch.stalls,
                 sum(stall_overlap_s(watch.stalls, t0, t1)
                     for _, _, t0, t1, _ in samples.log),
                 sum(t1 - t0 for _, _, t0, t1, _ in samples.log))
    out.attempted += len(samples.log)
    out.failed += samples.failed
    return samples


def _run_batch(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    seconds /= PASSES
    passes, out.metrics = _passes(
        _batch_setup, _compute(READ_VALUE),
        lambda cluster: _batch_pass(cluster, seed, seconds, out))
    calls = [p.calls() for p in passes]
    get_p50 = _median(np.percentile(lat[~put], 50) for lat, _, put in calls)
    put_p50 = _median(np.percentile(lat[put], 50) for lat, _, put in calls)
    lat, thread, _ = (np.concatenate(column) for column in zip(*calls))
    out.metrics.update({
        "query_p50_us": _median(np.percentile(c[0], 50) for c in calls),
        "query_p99_us": min(np.percentile(c[0], 99) for c in calls),
        "miss_p50_us": put_p50,
        # Each thread calls back to back.
        "sustained_qps": sum(
            BATCH_SIZE * np.count_nonzero(thread == t)
            / (lat[thread == t].sum() / 1e6) for t in np.unique(thread)),
        "hit_rate": _median(p.found / p.distinct for p in passes),
        "node_steps": _median(READ_SERVERS * p.elapsed_s for p in passes),
        "speedup": (get_p50 + put_p50) / get_p50,
        "ok_rate": 1.0 - out.failed / out.attempted,
    })
    return out


# ------------------------------------------------------------- traced


def _run_traced(workload: str, seed: int, seconds: float) -> Outcome:
    """An untraced pass, then the same pass with spans on in this
    process and in fresh server children; reports per-layer metrics."""
    from layers import install_client, per_layer_metrics
    from spans import Tracer, merge_reduced, reduce_spans

    out = Outcome()
    phase_s = seconds * TRACED_SHARE
    setup, value_size = {
        "live-read": (_read_setup, READ_VALUE),
        "live-elastic": (_elastic_setup, ELASTIC_VALUE),
        "live-batch": (_batch_setup, READ_VALUE),
    }[workload]

    def one_pass(cluster, tracer=None):
        """(queries, p50 latency, sender lateness p99)."""
        if workload == "live-batch":
            samples = _batch_pass(cluster, seed, phase_s, out)
            return samples.keys, percentile(samples.latency(), 50), 0.0
        if workload == "live-read":
            samples, _ = _read_pass(cluster, seed, seconds, out,
                                    share=TRACED_SHARE, saturate=False,
                                    tracer=tracer)
        else:
            samples, _ = _elastic_pass(cluster, seed, out, tracer=tracer)
        return (samples.done, percentile(samples.latency(), 50),
                percentile(samples.late(), 99))

    child = _pin()
    cluster = setup(child, _compute(value_size))
    try:
        _, base_p50, late_p99 = one_pass(cluster)
    finally:
        cluster.close()

    tracer = Tracer()
    install_client(tracer)
    try:
        cluster = setup({"trace": True, **child},
                        _compute(value_size, tracer))
        try:
            # Per-layer numbers describe the measured pass, not warm-up.
            tracer.clear()
            for handle in cluster.handles:
                handle.reset_trace()
            queries, traced_p50, _ = one_pass(cluster, tracer)
            conns = [c for cl in [cluster.cluster, *cluster.clients]
                     for c in cl.clients.values()]
            retries = sum(c.retries for c in conns)
            reconnects = sum(c.reconnects for c in conns)
        finally:
            reports = cluster.close()
    finally:
        tracer.restore()
    reduced = merge_reduced([reduce_spans(tracer.spans()),
                             *(r["spans"] for r in reports)])
    counts = dict(tracer.counts)
    for report in reports:
        for name, n in report["counts"].items():
            counts[name] = counts.get(name, 0) + n
    derived = {
        "conn.retries": retries,
        "conn.reconnects": reconnects,
        "wire.frames_per_query": counts.get("wire.client.frames", 0)
        / queries,
        "server.stripe_contention": sum(
            r["stats"]["stripe_contention"] for r in reports),
        "ring.lookups_per_query": reduced.get("ring.lookup", {}).get(
            "count", 0) / queries,
        "window.evicted_per_candidate": (
            counts.get("window.evicted", 0)
            / max(counts.get("window.candidates", 0), 1)),
        "loadgen.late_p99_us": late_p99,
        "trace.overhead": traced_p50 / base_p50,
    }
    out.metrics, out.units = per_layer_metrics(reduced, counts, derived)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(workload, seed, seconds)
    return {"live-read": _run_read, "live-elastic": _run_elastic,
            "live-batch": _run_batch}[workload](seed, seconds)
