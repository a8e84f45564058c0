"""Seeded consistency runs: concurrent clients + nemesis + checker.

:func:`run_check` is the whole experiment in one call: boot a real
cluster (in-process :class:`~repro.live.server.LiveCacheServer`
threads, real sockets), unleash concurrent recorded workloads, let a
:class:`~repro.check.nemesis.ClusterNemesis` force splits, merges,
failovers and overload sheds mid-history, then hand the recorded
history to the per-key linearizability checker.  Everything derives
from one seed, so a failing run is a *repro*, not an anecdote —
``repro check --seed N`` replays it.

The nemesis timeline is the history's completed-op count, so schedule
shapes hold across workload sizes.  ``kill`` events are applied
*partition-style* (the wounded server's process stays up as a
forwarding source — only the ``crash`` nemesis actually destroys a
process), so every schedule except ``crash`` demands the strict model:
zero lost acked writes, even across the failover.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.check.history import History, RecordingClient
from repro.check.linearize import CheckResult, check_history
from repro.check.nemesis import (LOSSY_NEMESES, NEMESES, ClusterNemesis,
                                 nemesis_plan)
from repro.faults import RetryPolicy
from repro.live.client import LiveClusterClient
from repro.live.server import LiveCacheServer

#: fast-failure client policy for check runs: errors should surface as
#: recorded outcomes quickly, not hide behind long retry ladders
CHECK_RETRY = RetryPolicy(max_attempts=2, deadline_s=1.0,
                          base_delay_s=0.01, max_delay_s=0.05)


@dataclass
class CheckConfig:
    """One seeded consistency experiment, fully reproducible."""

    seed: int = 0
    clients: int = 3          #: concurrent workload processes
    ops_per_client: int = 80  #: workload iterations per process
    servers: int = 3          #: base fleet size (splits grow past it)
    keyspace: int = 16        #: distinct keys (small = high contention)
    nemesis: str = "mix"      #: schedule name (see NEMESES)
    ring_range: int = 1 << 20
    capacity_bytes: int = 1 << 22
    replicate: bool | None = None  #: buddy replication (auto for replica-kill)

    def __post_init__(self) -> None:
        if self.nemesis not in NEMESES:
            raise ValueError(
                f"unknown nemesis {self.nemesis!r} (one of {NEMESES})")
        if self.clients < 1 or self.ops_per_client < 1:
            raise ValueError("need at least one client and one op")
        if not 1 <= self.keyspace <= self.ring_range:
            raise ValueError("keyspace must fit the ring")
        if self.replicate is None:
            # replica-kill's whole point is surviving real process death
            # with the strict model — that only holds with buddies on.
            self.replicate = self.nemesis == "replica-kill"

    @property
    def lossy(self) -> bool:
        """Crash nemeses destroy records: misses become legal."""
        return self.nemesis in LOSSY_NEMESES

    def keys(self) -> list[int]:
        """The key population, strided across the whole hash ring so
        every server owns a share (identity hashing would otherwise
        pack a small keyspace into the first bucket)."""
        stride = self.ring_range // self.keyspace
        return [j * stride for j in range(self.keyspace)]


@dataclass
class CheckReport:
    """Verdict + evidence for one :func:`run_check` run."""

    config: CheckConfig
    result: CheckResult
    history: History
    duration_s: float
    nemesis_events: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def verdict(self) -> str:
        return self.result.verdict

    def render(self) -> str:
        """The human-facing report: verdict line, nemesis timeline,
        and (on failure) each minimized counterexample with the
        nemesis actions that overlapped it."""
        cfg = self.config
        lines = [
            f"check: {self.verdict}  "
            f"(seed={cfg.seed} nemesis={cfg.nemesis} "
            f"model={'lossy' if cfg.lossy else 'strict'})",
            f"  {self.result.ops_checked} checkable ops over "
            f"{self.result.keys_checked} keys, "
            f"{len(self.history.ops)} recorded, "
            f"{cfg.clients} clients, {self.duration_s:.1f}s",
        ]
        if self.result.undecided_keys:
            lines.append(f"  undecided keys (search budget): "
                         f"{self.result.undecided_keys}")
        if self.history.notes:
            lines.append("  nemesis: " + "; ".join(
                f"{n.label}@{n.ts}" for n in self.history.notes))
        for violation in self.result.violations:
            lines.append("")
            lines.append(f"VIOLATION key {violation.key}: "
                         f"{violation.reason} — {violation.detail}")
            lines.append(self.history.render(violation.ops))
        return "\n".join(lines)


class _Fleet:
    """The real servers behind a check run, keyed two ways: base slots
    (nemesis ``node`` numbers) and spawn order (split/merge stack)."""

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.base: dict[int, LiveCacheServer] = {
            i: self._boot() for i in range(config.servers)}
        self.addresses = [self.base[i].address
                          for i in range(config.servers)]
        self.spawned: list[tuple[tuple[str, int], LiveCacheServer]] = []
        self._gate_saved: dict[int, int] = {}

    def _boot(self, host: str = "127.0.0.1", port: int = 0) -> LiveCacheServer:
        return LiveCacheServer(
            host=host, port=port,
            capacity_bytes=self.config.capacity_bytes,
            max_workers=8, max_queue=32).start()

    def stop_all(self) -> None:
        for server in list(self.base.values()):
            server.stop()
        for _, server in self.spawned:
            server.stop()


def _split_bucket(cluster: LiveClusterClient) -> int | None:
    """Where to put the new bucket: the midpoint of the fullest server's
    widest segment (GBA in spirit — relieve the node holding the most
    records, as its own ``stats`` reports them), falling back to the
    widest interval when every server is cold."""
    ring = cluster.ring

    def widest(addr) -> tuple[int, int]:
        return max((seg for b in ring.buckets_of(addr)
                    for seg in ring.interval_segments(b)),
                   key=lambda s: s[1] - s[0])

    candidates = [(client.stats()["records"], widest(addr))
                  for addr, client in list(cluster.clients.items())
                  if ring.buckets_of(addr)]
    _, (lo, hi) = max(candidates, key=lambda c: (c[0], c[1][1] - c[1][0]))
    mid = lo + (hi - lo) // 2
    if hi - lo < 4 or mid in ring.node_map:
        return None
    return mid


def _wire_nemesis(config: CheckConfig, cluster: LiveClusterClient,
                  fleet: _Fleet, history: History,
                  rng: random.Random) -> ClusterNemesis:
    # replica-kill destroys a real process like "crash", but keeps the
    # strict model: the buddy replica must cover the dead range.
    crash_style = config.lossy or config.nemesis == "replica-kill"

    def kill(slot: int) -> None:
        addr = fleet.addresses[slot]
        if crash_style:
            fleet.base[slot].stop()     # records die with the process
            cluster.fail_server(addr, forward=False)
            history.note(f"crash node {slot}")
        else:
            # Partition-style: the process survives as a forwarding
            # source, so the strict model applies across the failover.
            cluster.fail_server(addr, forward=True)
            history.note(f"kill node {slot} (partitioned)")

    def restore(slot: int) -> None:
        addr = fleet.addresses[slot]
        if crash_style:
            host, port = addr
            fleet.base[slot] = fleet._boot(host, port)  # cold restart
        cluster.restore_server(addr)
        history.note(f"restore node {slot}")

    def split() -> None:
        bucket = _split_bucket(cluster)
        if bucket is None:
            history.note("split skipped (no splittable interval)")
            return
        server = fleet._boot()
        try:
            moved = cluster.add_server(server.address, bucket)
        except Exception:
            server.stop()
            raise
        fleet.spawned.append((server.address, server))
        history.note(f"split: +server at bucket {bucket}, {moved} moved")

    def merge() -> None:
        if not fleet.spawned:
            history.note("merge skipped (nothing to contract)")
            return
        addr, server = fleet.spawned.pop()
        moved = cluster.remove_server(addr)
        server.stop()
        history.note(f"merge: -server {addr[1]}, {moved} drained")

    def overload(slot: int, active: bool) -> None:
        server = fleet.base.get(slot)
        if server is None:
            return
        if active:
            fleet._gate_saved[slot] = server.gate.max_queue
            server.gate.max_queue = 0           # shed anything that waits
            server._server.op_delay_s = 0.002   # make workers saturate
            history.note(f"overload node {slot} on")
        else:
            server.gate.max_queue = fleet._gate_saved.pop(slot, 32)
            server._server.op_delay_s = 0.0
            history.note(f"overload node {slot} off")

    total = config.clients * config.ops_per_client
    plan = nemesis_plan(config.nemesis, total, rng=rng)
    return ClusterNemesis(plan, kill=kill, restore=restore, split=split,
                          merge=merge, overload=overload)


def _workload(config: CheckConfig, client: RecordingClient,
              pid: int, keys: list[int]) -> None:
    """One recorded workload process: a seeded mix of point and batch
    ops over a small, contended key population.  Values are globally
    unique (``pid:seq:key``) so the checker's stale-read detector and
    value interning stay exact."""
    rng = random.Random((config.seed << 8) ^ pid)
    seq = 0
    for _ in range(config.ops_per_client):
        # Loopback ops are far faster than the nemesis's topology
        # changes; a small jittered pause keeps splits/merges landing
        # *mid*-history instead of after the workload has drained.
        time.sleep(0.001 + rng.random() * 0.004)
        roll = rng.random()
        key = keys[rng.randrange(len(keys))]
        if roll < 0.45:
            client.get(key)
        elif roll < 0.80:
            seq += 1
            client.put(key, f"{pid}:{seq}:{key}".encode())
        elif roll < 0.90:
            client.get_many(rng.sample(keys, min(3, len(keys))))
        else:
            batch = []
            for k in rng.sample(keys, min(2, len(keys))):
                seq += 1
                batch.append((k, f"{pid}:{seq}:{k}".encode()))
            client.put_many(batch)


def run_check(config: CheckConfig) -> CheckReport:
    """Run one seeded consistency experiment end to end."""
    started = time.monotonic()
    history = History()
    rng = random.Random(config.seed)
    keys = config.keys()
    fleet = _Fleet(config)
    cluster = LiveClusterClient(fleet.addresses,
                                ring_range=config.ring_range,
                                retry=CHECK_RETRY, timeout=2.0,
                                replication=bool(config.replicate))
    nemesis = _wire_nemesis(config, cluster, fleet, history, rng)
    nemesis_errors: list[BaseException] = []
    worker_errors: list[BaseException] = []
    stop = threading.Event()

    def nemesis_loop() -> None:
        while not stop.is_set():
            try:
                nemesis.tick(history.op_count)
            except BaseException as exc:  # surfaced after the run
                nemesis_errors.append(exc)
                return
            if nemesis.plan.exhausted and not nemesis._pending:
                return
            time.sleep(0.002)

    def worker_main(pid: int) -> None:
        # An exception escaping the recording client is a harness (or
        # cluster) bug; recorded quietly it would masquerade as a
        # consistency violation — a dead worker's applied-but-unrecorded
        # writes read as phantoms.  Surface it as a run failure instead.
        try:
            _workload(config, RecordingClient(cluster, history, pid),
                      pid, keys)
        except BaseException as exc:
            worker_errors.append(exc)

    workers = [
        threading.Thread(target=worker_main, name=f"check-worker-{pid}",
                         args=(pid,))
        for pid in range(config.clients)
    ]
    nemesis_thread = threading.Thread(target=nemesis_loop,
                                      name="check-nemesis")
    try:
        for w in workers:
            w.start()
        nemesis_thread.start()
        for w in workers:
            w.join()
        stop.set()
        nemesis_thread.join()
        if not nemesis_errors:
            # Fire anything still scheduled (a recover near the end of
            # the timeline) and close open windows, so the final read
            # pass sees a healed cluster.
            nemesis.tick(float("inf"))
        # Final read pass: a fresh "process" observes every key once —
        # the cheapest way to catch a write lost *after* the workload's
        # last read of its key.
        history.note("final read pass")
        reader = RecordingClient(cluster, history, process=config.clients)
        for key in keys:
            reader.get(key)
    finally:
        stop.set()
        cluster.close()
        fleet.stop_all()
    if nemesis_errors:
        raise RuntimeError(
            f"nemesis action failed mid-run (seed={config.seed}, "
            f"nemesis={config.nemesis})") from nemesis_errors[0]
    if worker_errors:
        raise RuntimeError(
            f"workload client crashed mid-run (seed={config.seed}, "
            f"nemesis={config.nemesis})") from worker_errors[0]
    result = check_history(history, lossy=config.lossy)
    return CheckReport(config=config, result=result, history=history,
                       duration_s=time.monotonic() - started,
                       nemesis_events=list(nemesis.applied))
