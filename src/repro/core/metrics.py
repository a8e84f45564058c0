"""Per-step experiment metrics.

The paper records, at every time step, "the average service execution time
(in number of seconds real time), the number of times a query reuses a
cached record (i.e., hits), and the number of cache misses" (Sec. IV-A),
plus the node-allocation trace plotted against the right axes of
Figs. 3, 5 and 6.  :class:`MetricsRecorder` captures all of that and
derives the two speedup views the figures use:

* **cumulative speedup** (Fig. 3): total no-cache time over total observed
  time, from experiment start;
* **windowed speedup** (Figs. 5a-d): the same ratio over a trailing
  interval, which is what rises to the "maximum observable speedup" during
  the intensive phase and falls back after it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


@dataclass
class StepStats:
    """Aggregates for one workload time step."""

    step: int
    queries: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    eviction_candidates: int = 0
    splits: int = 0
    allocations: int = 0
    merges: int = 0
    node_count: int = 0
    used_bytes: int = 0
    capacity_bytes: int = 0
    latency_sum_s: float = 0.0
    sim_time_s: float = 0.0
    cost_usd: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        """Average observed per-query time this step."""
        return self.latency_sum_s / self.queries if self.queries else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of this step's queries served from cache."""
        return self.hits / self.queries if self.queries else 0.0


class MetricsRecorder:
    """Streaming per-step metrics with numpy series extraction.

    Usage: call :meth:`record_query` per query and the other ``record_*``
    hooks as events occur; call :meth:`end_step` once per time step with a
    state snapshot.  Series are materialized lazily.

    This is the paper's per-step model only; the live cluster's failure
    and overload counters live in
    :class:`~repro.live.coordinator.LiveQueryStats`.

    Thread safety: a recorder may be shared by a driver that runs
    queries on several threads, so every hook and every snapshot takes
    one internal lock.  Without it, two threads racing ``_current()``
    can each create a StepStats and orphan one, ``+=`` loses increments,
    and ``summary()`` can observe ``hits + misses != queries``
    mid-update.
    """

    def __init__(self, keep_latencies: bool = False) -> None:
        self._lock = threading.RLock()  # reentrant: summary() -> series()
        self.steps: list[StepStats] = []
        self._open: StepStats | None = None
        self.total_queries = 0
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0
        self.total_latency_s = 0.0
        #: per-query latency log (enabled with ``keep_latencies=True``);
        #: needed for tail percentiles, which step means wash out.
        self.keep_latencies = keep_latencies
        self._latencies: list[float] = []

    # ------------------------------------------------------------- hooks

    def _current(self) -> StepStats:
        if self._open is None:
            self._open = StepStats(step=len(self.steps))
        return self._open

    def record_query(self, *, hit: bool, latency_s: float) -> None:
        """Account one completed query."""
        with self._lock:
            s = self._current()
            s.queries += 1
            s.latency_sum_s += latency_s
            if hit:
                s.hits += 1
            else:
                s.misses += 1
            self.total_queries += 1
            self.total_hits += int(hit)
            self.total_misses += int(not hit)
            self.total_latency_s += latency_s
            if self.keep_latencies:
                self._latencies.append(latency_s)

    def record_eviction(self, evicted: int, candidates: int) -> None:
        """Account one slice-expiry eviction batch."""
        with self._lock:
            s = self._current()
            s.evictions += evicted
            s.eviction_candidates += candidates
            self.total_evictions += evicted

    def record_split(self, allocated: bool) -> None:
        """Account one GBA split (and its allocation, if any)."""
        with self._lock:
            s = self._current()
            s.splits += 1
            s.allocations += int(allocated)

    def record_merge(self) -> None:
        """Account one contraction merge."""
        with self._lock:
            self._current().merges += 1

    def end_step(self, *, step: int, node_count: int, used_bytes: int,
                 capacity_bytes: int, sim_time_s: float, cost_usd: float) -> StepStats:
        """Close the current step with a cache/cloud state snapshot."""
        with self._lock:
            s = self._current()
            s.step = step
            s.node_count = node_count
            s.used_bytes = used_bytes
            s.capacity_bytes = capacity_bytes
            s.sim_time_s = sim_time_s
            s.cost_usd = cost_usd
            self.steps.append(s)
            self._open = None
            return s

    # ------------------------------------------------------------ series

    def series(self, name: str) -> np.ndarray:
        """A numpy array of per-step values for attribute ``name``."""
        with self._lock:
            return np.array([getattr(s, name) for s in self.steps],
                            dtype=float)

    def cumulative_speedup(self, baseline_s: float) -> np.ndarray:
        """Per-step cumulative speedup: ``Σ baseline / Σ observed``."""
        queries = self.series("queries")
        latency = self.series("latency_sum_s")
        cum_q = np.cumsum(queries)
        cum_t = np.cumsum(latency)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(cum_t > 0, (cum_q * baseline_s) / cum_t, 1.0)
        return out

    def windowed_speedup(self, baseline_s: float, window_steps: int = 10) -> np.ndarray:
        """Trailing-window speedup (what Figs. 5a-d plot over time)."""
        queries = self.series("queries")
        latency = self.series("latency_sum_s")
        kernel = np.ones(window_steps)
        q = np.convolve(queries, kernel)[: len(queries)]
        t = np.convolve(latency, kernel)[: len(latency)]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(t > 0, (q * baseline_s) / t, 1.0)
        return out

    def interval_speedup(self, baseline_s: float,
                         interval_queries: int) -> list[tuple[int, float]]:
        """Speedup per fixed query-count interval (Fig. 3's x-axis of
        "every I queries elapsed").  Returns ``(queries_elapsed, speedup)``
        pairs."""
        out: list[tuple[int, float]] = []
        q_acc = 0
        t_acc = 0.0
        elapsed = 0
        for s in self.steps:
            q_acc += s.queries
            t_acc += s.latency_sum_s
            elapsed += s.queries
            if q_acc >= interval_queries:
                out.append((elapsed, (q_acc * baseline_s) / t_acc if t_acc else 1.0))
                q_acc = 0
                t_acc = 0.0
        if q_acc:
            out.append((elapsed, (q_acc * baseline_s) / t_acc if t_acc else 1.0))
        return out

    def latency_percentiles(self, qs=(50, 90, 99, 100)) -> dict[float, float]:
        """Per-query latency percentiles (requires ``keep_latencies``).

        Raises
        ------
        RuntimeError
            If per-query latencies were not being kept.
        """
        if not self.keep_latencies:
            raise RuntimeError("construct MetricsRecorder(keep_latencies=True)")
        with self._lock:
            if not self._latencies:
                return {q: 0.0 for q in qs}
            arr = np.asarray(self._latencies)
        values = np.percentile(arr, qs)
        return {q: float(v) for q, v in zip(qs, values)}

    # ----------------------------------------------------------- summary

    @property
    def overall_hit_rate(self) -> float:
        """Hits over all queries so far."""
        with self._lock:
            return (self.total_hits / self.total_queries
                    if self.total_queries else 0.0)

    def mean_node_count(self) -> float:
        """Average node allocation over the experiment's lifespan."""
        counts = self.series("node_count")
        return float(counts.mean()) if counts.size else 0.0

    def steps_to_csv(self, path) -> None:
        """Write the per-step table as CSV (pandas/gnuplot-ready)."""
        from pathlib import Path

        fields = ["step", "queries", "hits", "misses", "evictions",
                  "splits", "allocations", "merges", "node_count",
                  "used_bytes", "capacity_bytes", "latency_sum_s",
                  "sim_time_s", "cost_usd"]
        lines = [",".join(fields)]
        for s in self.steps:
            lines.append(",".join(
                f"{getattr(s, f):.6g}" if isinstance(getattr(s, f), float)
                else str(getattr(s, f)) for f in fields))
        Path(path).write_text("\n".join(lines) + "\n")

    def summary(self, baseline_s: float) -> dict:
        """Flat summary dict for reports (internally consistent: taken
        under the lock, so ``hits + misses == queries`` always holds)."""
        with self._lock:
            return self._summary_locked(baseline_s)

    def _summary_locked(self, baseline_s: float) -> dict:
        cum = self.cumulative_speedup(baseline_s)
        return {
            "queries": self.total_queries,
            "hits": self.total_hits,
            "misses": self.total_misses,
            "hit_rate": self.overall_hit_rate,
            "evictions": self.total_evictions,
            "final_speedup": float(cum[-1]) if cum.size else 1.0,
            "mean_nodes": self.mean_node_count(),
            "max_nodes": float(self.series("node_count").max()) if self.steps else 0.0,
            "final_cost_usd": self.steps[-1].cost_usd if self.steps else 0.0,
        }
