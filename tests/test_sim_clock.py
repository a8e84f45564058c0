"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import ClockError, SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0
        assert SimClock().step == 0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now == pytest.approx(7.5)

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == pytest.approx(3.0)

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            SimClock().advance(-1.0)

    def test_nan_advance_rejected(self):
        clock = SimClock(now=5.0)
        with pytest.raises(ClockError):
            clock.advance(float("nan"))
        assert clock.now == 5.0  # not poisoned


class TestAdvanceTo:
    def test_moves_forward(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_past_target_is_noop(self):
        clock = SimClock(now=10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0


class TestSteps:
    def test_tick_increments(self):
        clock = SimClock()
        assert clock.tick_step() == 1
        assert clock.tick_step(3) == 4

    def test_negative_tick_rejected(self):
        with pytest.raises(ClockError):
            SimClock().tick_step(-1)

    def test_steps_independent_of_time(self):
        clock = SimClock()
        clock.advance(100.0)
        assert clock.step == 0


class TestWatchers:
    def test_watcher_called_with_new_time(self):
        clock = SimClock()
        seen = []
        clock.add_watcher(seen.append)
        clock.advance(4.0)
        clock.advance(1.0)
        assert seen == [4.0, 5.0]

    def test_reset_keeps_watchers(self):
        clock = SimClock()
        seen = []
        clock.add_watcher(seen.append)
        clock.advance(1.0)
        clock.reset()
        assert clock.now == 0.0 and clock.step == 0
        clock.advance(2.0)
        assert seen == [1.0, 2.0]
