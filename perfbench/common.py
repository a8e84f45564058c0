"""Shared pieces of the workloads: result shape, statistics, values."""

from __future__ import annotations

import bisect
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: end-to-end metrics every workload reports, with their units
E2E_UNITS = {
    "setup_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "miss_p50_us": "us",
    "sustained_qps": "1/s",
    "hit_rate": "ratio",
    "ok_rate": "ratio",
    "node_steps": "count",
    "speedup": "x",
    "rss_mb": "MiB",
}

@dataclass
class Outcome:
    """What one run reports: op counts, output checks, metrics."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Record an output check; the first 20 failures are kept."""
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(what)
        elif not ok and self.mismatches[-1] != "...":
            self.mismatches.append("...")

    def result(self) -> dict:
        return {
            "correct": not self.mismatches,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(value),
                               "unit": self.units.get(name)
                               or E2E_UNITS[name]}
                        for name, value in self.metrics.items()},
        }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: the fast-mode time of one spinner turn (``stallwatch.py``) and of one
#: :func:`probe` on the reference host, a 2-vCPU Intel Xeon virtual
#: machine at 2.1 GHz: what a slowness of 1.0 means
REF_TURN_S = 670e-9
REF_PROBE_S = 4.6e-6
#: a request's slowness is the mean of a CPU's samples within this much
#: of the request
SPEED_WINDOW_S = 0.01
#: empty-loop turns per probe timing, and timings per probe (the fastest
#: one counts, so an interrupt seldom shows)
PROBE_LOOPS = 400
PROBE_REPEATS = 3
#: the load generator probes its own CPU at most this often
PROBE_EVERY_S = 0.005


def probe() -> float:
    """Seconds the fastest of ``PROBE_REPEATS`` timings of a fixed empty
    loop took on this thread's CPU (4.6 us in the reference host's fast
    mode)."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        for _ in range(PROBE_LOOPS):
            pass
        best = min(best, clock() - t0)
    return best


@dataclass
class SpeedTrace:
    """How much slower than the reference host one CPU ran, sampled over
    a stretch: ``slowness[i]`` at ``times[i]`` (``time.perf_counter``,
    ascending); 1.0 is the reference host's fast mode.

    A shared virtual machine runs each virtual CPU in a fast and a slow
    mode, the slow one up to twice as slow, switching every fraction of a
    second to few seconds and on each CPU on its own; which mode a run
    mostly sees wanders over minutes.  Every timing of the program moves
    with it.  The samples come from code of the benchmark's own (a
    spinner turn, an empty loop), so a change to the program cannot move
    them.
    """

    times: np.ndarray
    slowness: np.ndarray

    @classmethod
    def from_samples(cls, samples, reference_s: float) -> "SpeedTrace":
        """From ``(time, seconds)`` samples of a timing whose fast-mode
        value on the reference host is ``reference_s``."""
        data = np.array(sorted(samples), dtype=float).reshape(-1, 2)
        return cls(data[:, 0], data[:, 1] / reference_s)

    def over(self, lo, hi) -> np.ndarray:
        """Mean slowness over each ``[lo - SPEED_WINDOW_S, hi +
        SPEED_WINDOW_S]``; where no sample falls inside, the nearest
        sample's.  All 1.0 when there are no samples."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not len(self.times):
            return np.ones(lo.shape)
        cum = np.concatenate([[0.0], np.cumsum(self.slowness)])
        first = np.searchsorted(self.times, lo - SPEED_WINDOW_S)
        last = np.searchsorted(self.times, hi + SPEED_WINDOW_S,
                               side="right")
        inside = (cum[last] - cum[first]) / np.maximum(last - first, 1)
        # Nearest sample: the one just before the window or just after.
        before = np.clip(first - 1, 0, len(self.times) - 1)
        after = np.clip(first, 0, len(self.times) - 1)
        nearer = np.where(
            np.abs(self.times[after] - lo) < np.abs(self.times[before] - lo),
            after, before)
        return np.where(last > first, inside, self.slowness[nearer])


def slowness(traces: list[SpeedTrace], lo, hi) -> np.ndarray:
    """Each ``[lo, hi]`` stretch's slowness: the mean over the CPUs the
    work ran on.  A live request runs on the load generator's CPU and on
    a server's, so both slow it."""
    return np.mean([trace.over(lo, hi) for trace in traces], axis=0)


class Prober:
    """Speed samples of the calling threads' CPU: :meth:`maybe` probes at
    most every ``PROBE_EVERY_S``; :meth:`trace` reads them."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.next = 0.0

    def maybe(self) -> None:
        now = time.perf_counter()
        if now >= self.next:
            self.next = now + PROBE_EVERY_S
            self.samples.append((now, probe()))

    def trace(self) -> SpeedTrace:
        return SpeedTrace.from_samples(self.samples, REF_PROBE_S)


#: a gap this long in a spinner's clock reads that the program's own
#: processes did not fill marks a host stall (a turn takes ~1 us)
STALL_THRESHOLD_S = 0.0005
STALLWATCH = Path(__file__).resolve().parent / "stallwatch.py"
#: every CPU this run may use, taken before any process pins itself
CPUS = sorted(os.sched_getaffinity(0))


class StallWatch:
    """Idle spinners, one pinned to each CPU (``stallwatch.py``), that
    keep the CPUs from halting, record when the host stopped running
    them, and sample each CPU's speed while it is otherwise idle.

    On a shared virtual machine a halted CPU takes milliseconds to be
    run again when the program's next packet arrives, and the host also
    takes a busy CPU away now and then, freezing whatever ran there.
    Both measure the host, not the program.  The spinners remove the
    first; the workloads take the second out of each request's latency
    (see :func:`stall_overlap_s`).  Time the program's own processes
    held a CPU is never a stall.  Use as a context manager around the
    measured stretch; ``stalls`` holds merged ``(start, end)`` intervals
    on the ``time.perf_counter`` clock afterwards.
    """

    def __init__(self) -> None:
        self.procs = []
        self.stalls: list[tuple[float, float]] = []
        #: each CPU's speed over the stretch, from its spinner's turns
        self.speed: dict[int, SpeedTrace] = {}

    def __enter__(self) -> "StallWatch":
        try:
            for cpu in CPUS:
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(STALLWATCH), str(cpu),
                     str(STALL_THRESHOLD_S)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True))
            for proc in self.procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("stall watcher failed to start")
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, *exc) -> None:
        stalls = []
        try:
            for cpu, proc in zip(CPUS, self.procs):
                proc.stdin.write("stop\n")
                proc.stdin.flush()
                report = json.loads(proc.stdout.readline())
                stalls.extend(report["stalls"])
                self.speed[cpu] = SpeedTrace.from_samples(report["speed"],
                                                          REF_TURN_S)
                proc.wait(timeout=10)
        finally:
            self._kill()
        merged: list[list[float]] = []
        for lo, hi in sorted(stalls):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self.stalls = [(lo, hi) for lo, hi in merged]

    def _kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            for pipe in (proc.stdin, proc.stdout):
                pipe.close()
        self.procs = []


def stall_overlap_s(stalls: list[tuple[float, float]], lo: float,
                    hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by the merged, sorted stalls."""
    i = max(bisect.bisect_right(stalls, (lo,)) - 1, 0)
    covered = 0.0
    while i < len(stalls) and stalls[i][0] < hi:
        covered += max(0.0, min(hi, stalls[i][1]) - max(lo, stalls[i][0]))
        i += 1
    return covered


def stall_report(what: str, stalls, corrected_s: float,
                 latency_s: float) -> None:
    """Say on stderr how much host stall time left the latencies."""
    share = corrected_s / latency_s if latency_s else 0.0
    print(f"{what}: {len(stalls)} host stalls, "
          f"{sum(hi - lo for lo, hi in stalls):.4f} s; removed "
          f"{corrected_s:.4f} s = {share:.2%} of summed latency",
          file=sys.stderr)


def speed_report(what: str, traces: list[SpeedTrace]) -> None:
    """Say on stderr how slow each CPU ran over a stretch."""
    print(f"{what}: slowness " + ", ".join(
        f"{trace.slowness.mean():.2f} over {len(trace.times)} samples"
        if len(trace.times) else "unsampled" for trace in traces),
        file=sys.stderr)


def value_for(key: int, size: int) -> bytes:
    """The derived bytes a miss computes for ``key`` (deterministic)."""
    return key.to_bytes(8, "little") * (size // 8)


def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
