"""Property tests for the fault subsystem.

Two load-bearing invariants:

* **Correctness under chaos** — for *random* fault plans played against
  the simulator, every completed query returns exactly what the
  fault-free oracle computes.  The cache only holds derived results, so
  recompute-on-miss is always a correct fallback; faults may change
  hit/miss patterns and node population, never answers.
* **Retry stays inside its budget** — the retry policy never makes more
  than ``max_attempts`` calls and never sleeps past ``deadline_s``,
  for any parameter combination and failure pattern.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.config import ExperimentTimings
from repro.core.coordinator import Coordinator
from repro.faults import (FaultEvent, FaultPlan, FaultyCache, RetryPolicy,
                          SimFaultInjector, call_with_retry)
from repro.live.migration import finish_move, prepare_move
from repro.live.protocol import ProtocolError
from repro.services.base import SyntheticService
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from tests.conftest import FakeDest, FakeSource, make_cache


# --------------------------------------------------------------------- sim


def _run_chaos_sim(seed: int, n_queries: int = 120, keyspace: int = 60):
    """Drive a simulated experiment under a random fault plan; return
    (coordinator, injector, cache)."""
    clock = SimClock()
    cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(seed),
                           boot_mean_s=1.0, boot_std_s=0.1, max_nodes=32)
    network = NetworkModel()
    cache = make_cache(cloud, network, capacity_bytes=64 * (128 + 64),
                       ring_range=1 << 12, initial_nodes=2)
    queue = EventQueue(clock)
    pyrng = random.Random(seed)
    plan = FaultPlan.random(pyrng, horizon=float(n_queries),
                            nodes=2, n_faults=4)
    injector = SimFaultInjector(cache, plan, queue, seed=seed)
    service = SyntheticService(clock, service_time_s=1.0, result_bytes=128)
    coord = Coordinator(
        cache=FaultyCache(cache, injector), service=service, clock=clock,
        network=network,
        timings=ExperimentTimings(service_time_s=1.0, result_bytes=128))

    for i in range(n_queries):
        queue.run_due()  # apply any faults scheduled up to virtual now
        # stride the keyspace across the whole ring so both nodes matter
        key = ((i * 17 + seed) % keyspace) * 64
        outcome = coord.query(key)
        # The oracle: the service's derived payload for this key.
        assert outcome.value.payload == f"derived:{key}", (
            f"query {i} (key {key}) returned wrong payload under plan "
            f"{[e.kind for e in plan]}")
    return coord, injector, cache


@given(seed=st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_random_fault_plans_preserve_correctness(seed):
    """Sim results equal the fault-free oracle on all completed queries,
    whatever the (random) fault plan does."""
    coord, injector, cache = _run_chaos_sim(seed)
    # The run completed every query, and the cache's internal accounting
    # survived whatever the plan inflicted.
    assert coord.metrics.total_queries == 120
    cache.check_integrity()


@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_crash_faults_actually_bite(seed):
    """Sanity for the harness itself: a plan that crashes a node during
    the run drops at least one op (otherwise the chaos tests above would
    be vacuous)."""
    clock = SimClock()
    cloud = SimulatedCloud(clock=clock, rng=np.random.default_rng(seed),
                           boot_mean_s=1.0, boot_std_s=0.1, max_nodes=32)
    network = NetworkModel()
    cache = make_cache(cloud, network, capacity_bytes=64 * (128 + 64),
                       ring_range=1 << 12, initial_nodes=2)
    queue = EventQueue(clock)
    # crash node 0 immediately, never recover
    plan = FaultPlan([FaultEvent(at=0.0, kind="crash", node=0)])
    injector = SimFaultInjector(cache, plan, queue, seed=seed)
    service = SyntheticService(clock, service_time_s=1.0, result_bytes=128)
    coord = Coordinator(
        cache=FaultyCache(cache, injector), service=service, clock=clock,
        network=network,
        timings=ExperimentTimings(service_time_s=1.0, result_bytes=128))
    for i in range(60):
        queue.run_due()
        key = ((i * 7 + seed) % 40) * 64
        outcome = coord.query(key)
        assert outcome.value.payload == f"derived:{key}"
    assert injector.stats.crashes == 1
    assert injector.stats.dropped_gets + injector.stats.dropped_puts > 0
    # Everything routed to the dead node recomputed: no hit can have come
    # from it, so hits + drops still reconcile with total queries.
    assert coord.metrics.total_queries == 60


# ------------------------------------------------------------------- retry


policy_st = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 6),
    deadline_s=st.floats(0.01, 10.0, allow_nan=False),
    base_delay_s=st.floats(0.0, 1.0, allow_nan=False),
    multiplier=st.floats(1.0, 3.0, allow_nan=False),
    max_delay_s=st.floats(0.0, 2.0, allow_nan=False),
    jitter=st.floats(0.0, 0.9, allow_nan=False),
)


@given(policy=policy_st, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_retry_never_exceeds_deadline_or_attempts(policy, seed):
    """For an always-failing call: at most ``max_attempts`` calls, and
    the summed backoff sleeps never pass ``deadline_s``."""
    now = [0.0]
    slept = [0.0]

    def clock() -> float:
        return now[0]

    def sleep(d: float) -> None:
        assert d >= 0
        now[0] += d
        slept[0] += d

    calls = []

    def fn():
        calls.append(now[0])
        raise OSError("down")

    with pytest.raises(OSError):
        call_with_retry(fn, policy, clock=clock, sleep=sleep,
                        rng=random.Random(seed))
    assert len(calls) <= policy.max_attempts
    assert slept[0] <= policy.deadline_s + 1e-9


@given(fail_count=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_retry_succeeds_within_budget(fail_count, seed):
    """If the call starts succeeding within the attempt budget, the
    caller sees the value, and exactly ``fail_count`` retries happened."""
    policy = RetryPolicy(max_attempts=6, deadline_s=1e9,
                         base_delay_s=0.01, jitter=0.5)
    state = {"left": fail_count, "calls": 0}

    def fn():
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError("flap")
        return "ok"

    now = [0.0]
    result = call_with_retry(
        fn, policy, clock=lambda: now[0],
        sleep=lambda d: now.__setitem__(0, now[0] + d),
        rng=random.Random(seed))
    assert result == "ok"
    assert state["calls"] == fail_count + 1


# --------------------------------------------------------- two-phase moves


class _CrashySource(FakeSource):
    """A :class:`~tests.conftest.FakeSource` with a scriptable crash
    point: crashes are raised as OSError at the scripted phase so the
    property can walk every point of the two-phase protocol."""

    def __init__(self, records: dict, crash: str | None):
        super().__init__(records)
        self.crash = crash          # None|"prepare"|"commit_before"|"commit_after"

    def extract_prepare(self, lo, hi, replica=False):
        if self.crash == "prepare":
            self.crash = None
            raise OSError("source crashed during prepare")
        return super().extract_prepare(lo, hi, replica)

    def extract_commit(self, token, replica=False):
        if self.crash == "commit_before":
            # crash before any deletion: records stay, token orphaned
            self.crash = None
            raise OSError("source crashed before commit applied")
        removed = super().extract_commit(token, replica)
        if self.crash == "commit_after":
            # deletion applied but the reply was lost
            self.crash = None
            raise OSError("reply lost after commit applied")
        return removed


two_phase_st = st.fixed_dictionaries({
    "seed": st.integers(0, 10**6),
    "n_records": st.integers(1, 24),
    "crash": st.sampled_from(
        [None, "prepare", "commit_before", "commit_after"]),
    "copy_fail_at": st.one_of(st.none(), st.integers(0, 23)),
})


@given(case=two_phase_st)
@settings(max_examples=80, deadline=None)
def test_two_phase_migration_never_loses_records(case):
    """Crash the two-phase protocol at *every* phase — during prepare,
    mid-copy, before the commit applies, after it applies but before the
    reply — and the invariant holds: the union of source and destination
    always covers the oracle (zero loss), and once a migration finally
    completes the destination holds exactly the oracle with the source
    range empty (zero duplicates)."""
    rng = random.Random(case["seed"])
    oracle = {rng.randrange(1000): f"v{i}".encode()
              for i in range(case["n_records"])}
    lo, hi = 0, 1000
    src = _CrashySource(oracle, case["crash"])
    copy_fail_at = case["copy_fail_at"]
    # The destination refuses once, mid-copy, at the record in that slot.
    keys = sorted(oracle)
    home = FakeDest(fail_at=keys[copy_fail_at] if copy_fail_at is not None
                    and copy_fail_at < len(keys) else None)
    dest = home.store

    def assert_no_loss() -> None:
        """Invariant 1 (holds at *every* crash point): zero loss.  Every
        oracle record survives in the union, right bytes on whichever
        side holds it; duplicates must agree byte-for-byte."""
        for key, value in oracle.items():
            assert src.records.get(key, dest.get(key)) == value, (
                f"record {key} lost after crash={case['crash']} "
                f"copy_fail_at={copy_fail_at}")
        for key in set(src.records) & set(dest):
            assert src.records[key] == dest[key] == oracle[key]

    # At most two scripted crashes can fire (one copy failure + one
    # source crash), so the protocol must complete within three runs —
    # checking the no-loss invariant after every crashed attempt.
    for _ in range(3):
        try:
            finish_move(prepare_move(src, [(lo, hi)]), home)
            break
        except (OSError, ProtocolError):
            assert_no_loss()
    else:
        pytest.fail("migration did not complete after crashes were spent")

    # Invariant 2 (after completion): zero lost AND zero duplicated.
    assert dest == oracle
    assert not any(lo <= k <= hi for k in src.records)


# -------------------------------------------------------------------- plan


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_plans_are_well_formed(seed):
    """Generated plans: sorted, valid kinds, every crash later recovered,
    and advance() consumes each event exactly once, in order."""
    rng = random.Random(seed)
    plan = FaultPlan.random(rng, horizon=100.0, nodes=3, n_faults=5)
    ats = [e.at for e in plan]
    assert ats == sorted(ats)
    crashes = [e for e in plan if e.kind == "crash"]
    for crash in crashes:
        assert any(e.kind == "recover" and e.node == crash.node
                   and e.at > crash.at for e in plan), \
            "crash without a later recover"
    # cursor semantics: piecewise advance yields everything exactly once
    seen = []
    for t in (10.0, 10.0, 35.0, 100.0 * 2):
        seen.extend(plan.advance(t))
    assert seen == list(plan.events)
    assert plan.exhausted
    plan.reset()
    assert plan.advance(float("inf")) == list(plan.events)
