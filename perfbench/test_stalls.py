"""Taking host stalls out of request latencies, reading them at the
reference host's speed, and pooling a run's passes.

Run with ``python3 -m pytest perfbench/test_stalls.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from common import stall_overlap_s  # noqa: E402
from live import (BatchSamples, QuerySamples,  # noqa: E402
                  best_of_passes, closed_loop_rate, per_pass)


def _samples(rows):
    """``rows`` of ``(due, start, end)``, served one after another."""
    samples = QuerySamples()
    for due, start, end in rows:
        samples.due.append(due)
        samples.start.append(start)
        samples.end.append(end)
        samples.miss.append(False)
        samples.refused.append(False)
    return samples


def test_overlap_sums_the_covered_part_of_each_stall():
    stalls = [(1.0, 2.0), (5.0, 6.0)]
    assert stall_overlap_s(stalls, 0.0, 10.0) == 2.0
    assert stall_overlap_s(stalls, 1.5, 5.5) == 1.0
    assert stall_overlap_s(stalls, 2.0, 5.0) == 0.0
    assert stall_overlap_s(stalls, 5.5, 7.0) == 0.5
    assert stall_overlap_s([], 0.0, 1.0) == 0.0


def test_no_stalls_leaves_latency_from_due_time():
    samples = _samples([(0.0, 0.0, 0.5), (1.0, 1.0, 2.5), (2.0, 2.5, 3.0)])
    assert samples.take_out_stalls([]) == 0.0
    assert samples.corrected == [0.5, 1.5, 1.0]


def test_a_stall_and_the_backlog_it_leaves_are_taken_out():
    # Request 0 is frozen for 5 s by the host; requests 1-3 queue behind.
    rows = [(0.0, 0.0, 5.5), (1.0, 5.5, 6.0), (2.0, 6.0, 6.5),
            (3.0, 6.5, 7.0)]
    samples = _samples(rows)
    removed = samples.take_out_stalls([(0.2, 5.2)])
    assert samples.corrected == pytest.approx([0.5] * 4)
    assert removed == pytest.approx(sum(e - d for d, _, e in rows) - 2.0)


def test_a_slow_request_still_charges_its_backlog():
    # The same shape with no stall: a 5.5 s request (a growth step, say)
    # and the queue behind it stay in the latencies.
    samples = _samples([(0.0, 0.0, 5.5), (1.0, 5.5, 6.0), (2.0, 6.0, 6.5)])
    samples.take_out_stalls([(9.0, 9.5)])
    assert samples.corrected == pytest.approx([5.5, 5.0, 4.5])


def test_refused_requests_count_past_any_limit():
    samples = _samples([(0.0, 0.0, 0.001), (1.0, 1.0, 1.001)])
    samples.refused[1] = True
    samples.unsent = 1
    samples.take_out_stalls([])
    assert samples.failed == 2
    assert samples.attempted == 3
    assert sorted(samples.latency()) == pytest.approx([1e3, 1e6, 1e6])


def test_latency_is_read_at_the_reference_speed():
    samples = _samples([(0.0, 0.0, 0.002), (1.0, 1.0, 1.003)])
    samples.take_out_stalls([])
    samples.slowness = np.array([2.0, 1.5])
    assert samples.latency().tolist() == pytest.approx([1e3, 2e3])


def test_each_pass_gives_its_own_percentiles():
    first = _samples([(0.0, 0.0, 0.001), (1.0, 1.0, 1.002)])
    first.miss[1] = True
    second = _samples([(0.0, 0.0, 0.003), (1.0, 1.0, 1.004)])
    second.miss[1] = True
    third = _samples([(0.0, 0.0, 0.001)])
    third.refused[0] = True
    third.unsent = 1
    for samples in (first, second, third):
        samples.take_out_stalls([])
    assert third.latency().tolist() == [1e6, 1e6]
    assert third.missed().tolist() == [False, False]
    assert per_pass([first, second, third], 100).tolist() == \
        pytest.approx([2e3, 4e3, 1e6])
    assert per_pass([first, second], 50, misses=True).tolist() == \
        pytest.approx([2e3, 4e3])


def test_each_request_keeps_its_best_pass_unless_lost_in_any():
    first = _samples([(0.0, 0.0, 0.001), (1.0, 1.0, 1.004),
                      (2.0, 2.0, 2.001)])
    first.refused[2] = True
    second = _samples([(0.0, 0.0, 0.003), (1.0, 1.0, 1.002)])
    second.unsent = 1
    for samples in (first, second):
        samples.take_out_stalls([])
    assert best_of_passes([first, second]).tolist() == \
        pytest.approx([1e3, 2e3, 1e6])


def test_closed_loop_rate_is_requests_over_summed_latency():
    short = _samples([(0.0, 0.0, 0.002), (0.002, 0.002, 0.003)])
    longer = _samples([(0.0, 0.0, 0.001)])
    for samples in (short, longer):
        samples.take_out_stalls([])
    # Three requests in 2 + 1 + 1 ms.
    assert closed_loop_rate([short, longer]) == pytest.approx(750.0)


def test_batch_calls_take_out_stalls_and_read_at_the_reference_speed():
    # (thread, index, start, end, ok)
    samples = BatchSamples(log=[(0, 0, 0.0, 0.004, True),
                                (1, 4, 0.0, 0.002, True),
                                (0, 1, 0.01, 0.011, False)],
                           stalls=[(0.001, 0.002)])
    samples.slowness = np.array([1.5, 2.0, 1.0])
    lat, thread, is_put = samples.calls()
    assert lat.tolist() == pytest.approx([2e3, 0.5e3, 1e6])
    assert thread.tolist() == [0, 1, 0]
    assert is_put.tolist() == [False, True, False]
    assert samples.failed == 1
