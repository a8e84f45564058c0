"""``sim-fig5``: the paper's Fig. 5 at full scale in the virtual-time
simulator (32K keys, phased 50/250/50 schedule, windows m = 50/100/200/400,
70K queries per panel).

One pass builds and replays all four panels.  Every pass replays the
same seeded work and must end in the identical cache state.  A run
makes ``ROUNDS`` passes in each of two worker processes at once, one
pinned to each CPU (one worker on a single-CPU machine), timing each
query and each step's replay with its ``end_step``.  Between steps a
worker probes its CPU's speed (``common.Prober``), and each step's times
are read at the reference host's speed: divided by the step's slowness
(``common.SpeedTrace``), since the shared host runs each CPU in a fast
and a slow mode that wanders over a run.  The latencies are percentiles
over every pass's queries and ``sustained_qps`` is the queries over the
summed step times.  Set-up (trace + system build of the four panels) is
timed separately and read the same way, median of passes; ``rss_mb`` is
the larger worker's peak.

``query_p50_us`` is the median over hits.  About 42 % of the queries
hit and the misses take about twice as long, so the median over all
queries sits on the steep lower edge of the misses.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from common import REF_PROBE_S, Outcome, Prober, SpeedTrace, peak_rss_mb

WINDOWS = (50, 100, 200, 400)
TRACED_WINDOW = 100
#: passes each worker makes
ROUNDS = 3
#: worker processes, one pinned to each CPU
WORKERS = 2


@dataclass
class Replay:
    """Per-query wall time (ns) and hit flag, and per step its start and
    end (``time.perf_counter`` s) and query count, in replay order."""

    query_ns: array = field(default_factory=lambda: array("q"))
    hit: array = field(default_factory=lambda: array("b"))
    step_start: array = field(default_factory=lambda: array("d"))
    step_end: array = field(default_factory=lambda: array("d"))
    step_queries: array = field(default_factory=lambda: array("q"))

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.array(getattr(self, name))
                for name in ("query_ns", "hit", "step_start", "step_end",
                             "step_queries")}


def _build(window: int, seed: int):
    from repro.experiments import harness
    from repro.experiments.configs import fig5_params

    params = fig5_params(window, "full", seed)
    trace = harness.make_trace(params)
    return params, trace, harness.build_elastic(params)


def _replay(bundle, trace, got: Replay, out: Outcome,
            prober: Prober | None = None) -> None:
    """``harness.run_trace``, appending each query's and each step's
    times to ``got``; ``prober`` probes the CPU between steps.  A query
    that raises counts as failed (a miss taking 0 ns) and fails the
    run."""
    coordinator = bundle.coordinator
    cost = bundle.cloud.cost_so_far
    clock = time.perf_counter_ns
    query = coordinator.query
    query_ns, hit = got.query_ns, got.hit
    for _, keys in trace.steps():
        if prober is not None:
            prober.maybe()
        keys = keys.tolist()
        got.step_start.append(time.perf_counter())
        for key in keys:
            t0 = clock()
            try:
                outcome = query(key)
            except Exception as exc:  # noqa: BLE001 - any raise is a failure
                query_ns.append(0)
                hit.append(0)
                out.failed += 1
                out.check(False, f"query {key} raised {exc!r}")
                continue
            query_ns.append(clock() - t0)
            hit.append(outcome.hit)
        coordinator.end_step(cost_usd=cost())
        got.step_end.append(time.perf_counter())
        got.step_queries.append(len(keys))


def _panel_state(params, bundle, out: Outcome) -> dict:
    """The panel's end state, after checking it."""
    cache = bundle.cache
    summary = bundle.metrics.summary(params.timings.service_time_s)
    try:
        cache.check_integrity()
    except AssertionError as exc:
        out.check(False, f"m={params.eviction.window_slices}: {exc}")
    out.check(summary["hits"] + summary["misses"] == summary["queries"],
              f"m={params.eviction.window_slices}: hits + misses != queries")
    return {
        "queries": summary["queries"],
        "hits": summary["hits"],
        "node_steps": int(bundle.metrics.series("node_count").sum()),
        "speedup": summary["final_speedup"],
        "records": cache.record_count,
        "splits": len(cache.gba.split_events),
        "allocations": sum(e.allocated for e in cache.gba.split_events),
        "merges": len(cache.contractor.merge_events),
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    return _run_traced(seed) if trace else _run(seed, seconds)


def _passes(cpu: int, seed: int, conn) -> None:
    """A worker: ``ROUNDS`` passes on ``cpu``; sends what they measured."""
    os.sched_setaffinity(0, {cpu})
    out = Outcome()
    prober = Prober()
    got = {"builds": [], "states": [], "replays": []}
    for _ in range(ROUNDS):
        builds, states = [], []
        replay = Replay()
        for window in WINDOWS:
            prober.maybe()
            t0 = time.perf_counter()
            params, trace, bundle = _build(window, seed)
            builds.append((t0, time.perf_counter()))
            _replay(bundle, trace, replay, out, prober)
            states.append(_panel_state(params, bundle, out))
        got["builds"].append(builds)
        got["states"].append(states)
        got["replays"].append(replay.arrays())
    conn.send({**got, "failed": out.failed, "mismatches": out.mismatches,
               "rss_mb": peak_rss_mb(), "probes": prober.samples})
    conn.close()


def _read_at_reference(report: dict) -> tuple[list[float], list[tuple]]:
    """A worker's passes read at the reference host's speed: each pass's
    set-up seconds, and each replay as ``(query_us, hit, step_s)``; every
    time is divided by the slowness the worker's probes saw around it."""
    trace = SpeedTrace.from_samples(report["probes"], REF_PROBE_S)
    setups = []
    for builds in report["builds"]:
        t0, t1 = np.array(builds).T
        setups.append(float(((t1 - t0) / trace.over(t0, t1)).sum()))
    replays = []
    for got in report["replays"]:
        slow = trace.over(got["step_start"], got["step_end"])
        query_us = got["query_ns"] / 1e3 / np.repeat(slow,
                                                     got["step_queries"])
        step_s = (got["step_end"] - got["step_start"]) / slow
        replays.append((query_us, got["hit"].astype(bool), step_s))
    return setups, replays


def _run_workers(seed: int) -> list[dict]:
    """Every worker's report; each worker is ended before this returns."""
    ctx = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))[:WORKERS]
    workers = []
    try:
        for cpu in cpus:
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_passes, args=(cpu, seed, send))
            proc.start()
            send.close()
            workers.append((proc, receive))
        return [receive.recv() for _, receive in workers]
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, receive in workers:
            proc.join()
            receive.close()


def _run(seed: int, seconds: float) -> Outcome:
    """The run's length is fixed by its passes, not by ``seconds``."""
    out = Outcome()
    reports = _run_workers(seed)
    passes = [states for r in reports for states in r["states"]]
    setups, replays = [], []
    for report in reports:
        report_setups, report_replays = _read_at_reference(report)
        setups += report_setups
        replays += report_replays
    for report in reports:
        out.failed += report["failed"]
        for problem in report["mismatches"]:
            out.check(False, problem)
    for n in range(1, len(passes)):
        out.check(passes[n] == passes[0]
                  and np.array_equal(replays[n][1], replays[0][1]),
                  "a repeated pass ended in another cache state")
    lat, hit, step_s = (np.concatenate(column) for column in zip(*replays))
    first = passes[0]
    queries = sum(s["queries"] for s in first)
    out.attempted = queries * len(passes)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_us": float(np.percentile(lat[hit], 50)),
        "query_p99_us": float(np.percentile(lat, 99)),
        "miss_p50_us": float(np.percentile(lat[~hit], 50)),
        "sustained_qps": len(lat) / step_s.sum(),
        "hit_rate": sum(s["hits"] for s in first) / queries,
        "ok_rate": 1.0 - out.failed / out.attempted,
        "node_steps": float(sum(s["node_steps"] for s in first)),
        "speedup": statistics.fmean(s["speedup"] for s in first),
        "rss_mb": max(r["rss_mb"] for r in reports),
    }
    return out


def _run_traced(seed: int) -> Outcome:
    """One panel untraced, then the same panel traced."""
    from layers import install_sim, per_layer_metrics
    from spans import Tracer, reduce_spans

    out = Outcome()
    params, trace, bundle = _build(TRACED_WINDOW, seed)
    t0 = time.perf_counter()
    _replay(bundle, trace, Replay(), out)
    untraced_s = time.perf_counter() - t0
    base = _panel_state(params, bundle, out)

    tracer = Tracer()
    install_sim(tracer)
    try:
        params, trace, bundle = _build(TRACED_WINDOW, seed)
        t0 = time.perf_counter()
        _replay(bundle, trace, Replay(), out)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    state = _panel_state(params, bundle, out)
    out.check(state == base, "traced pass ended in another cache state")
    out.attempted = 2 * state["queries"] + out.failed
    reduced = reduce_spans(tracer.spans())
    lookups = reduced.get("ring.lookup", {}).get("count", 0)
    counts = tracer.counts
    derived = {
        "ring.lookups_per_query": lookups / state["queries"],
        "window.evicted_per_candidate": (
            counts.get("window.evicted", 0)
            / max(counts.get("window.candidates", 0), 1)),
        "gba.splits": state["splits"],
        "gba.allocations": state["allocations"],
        "contraction.merges": state["merges"],
        "trace.overhead": traced_s / untraced_s,
    }
    out.metrics, out.units = per_layer_metrics(reduced, counts, derived)
    return out
