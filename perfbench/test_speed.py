"""Reading a CPU's speed over a stretch from the benchmark's own samples.

Run with ``python3 -m pytest perfbench/test_speed.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (PROBE_EVERY_S, SPEED_WINDOW_S, Prober,  # noqa: E402
                    SpeedTrace, probe, slowness)

W = SPEED_WINDOW_S


def test_samples_are_sorted_and_read_against_the_reference():
    trace = SpeedTrace.from_samples([(2.0, 3.0), (1.0, 2.0)], 2.0)
    assert trace.times.tolist() == [1.0, 2.0]
    assert trace.slowness.tolist() == [1.0, 1.5]


def test_a_stretch_reads_the_mean_of_the_samples_around_it():
    trace = SpeedTrace(np.array([0.0, 1.0, 1.0 + W, 2.0]),
                       np.array([9.0, 1.0, 2.0, 9.0]))
    assert trace.over([1.0], [1.0]).tolist() == pytest.approx([1.5])


def test_a_stretch_with_no_sample_inside_reads_the_nearest():
    trace = SpeedTrace(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
    assert trace.over([0.2, 0.9, 5.0, -3.0],
                      [0.3, 0.95, 6.0, -2.0]).tolist() == [2.0, 1.0, 1.0,
                                                            2.0]


def test_no_samples_read_as_the_reference_speed():
    trace = SpeedTrace.from_samples([], 1.0)
    assert trace.over([0.0, 1.0], [0.5, 2.0]).tolist() == [1.0, 1.0]


def test_a_request_is_slowed_by_every_cpu_it_ran_on():
    loadgen = SpeedTrace(np.array([0.0]), np.array([2.0]))
    server = SpeedTrace(np.array([0.0]), np.array([1.0]))
    assert slowness([loadgen, server], [0.0], [0.001]).tolist() == [1.5]


def test_the_prober_samples_at_most_every_interval():
    prober = Prober()
    prober.maybe()
    prober.maybe()
    assert len(prober.samples) == 1
    prober.next -= PROBE_EVERY_S
    prober.maybe()
    assert len(prober.samples) == 2
    assert all(seconds > 0 for _, seconds in prober.samples)
    assert probe() > 0
    assert len(prober.trace().times) == 2
