"""Virtual clock for discrete-event simulation.

The paper's experiments are organized around *time steps* (each submitting
``R`` queries) while all reported latencies — the 23 s shoreline service,
node-allocation delays, record-transfer times — are *real seconds*.  We keep
both notions:

* :attr:`SimClock.now` — continuous virtual seconds, advanced by every
  latency-bearing operation.
* :attr:`SimClock.step` — the workload's discrete time-step counter, advanced
  only by the experiment driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ClockError(RuntimeError):
    """Raised on attempts to move the virtual clock backwards."""


@dataclass
class SimClock:
    """Monotonic virtual clock.

    Parameters
    ----------
    now:
        Current virtual time in seconds.  Defaults to ``0.0``.
    step:
        Current workload time step (the paper's outer loop index).

    Examples
    --------
    >>> clock = SimClock()
    >>> clock.advance(23.0)
    23.0
    >>> clock.now
    23.0
    >>> clock.tick_step()
    1
    """

    now: float = 0.0
    step: int = 0
    _watchers: list = field(default_factory=list, repr=False)

    def advance(self, seconds: float) -> float:
        """Advance virtual time by ``seconds`` and return the new time.

        Raises
        ------
        ClockError
            If ``seconds`` is negative (time never flows backwards) or
            NaN (which would poison ``now`` and every later latency).
        """
        if not seconds >= 0:  # also refuses NaN, which compares False
            raise ClockError(f"cannot advance clock by {seconds!r}: time "
                             "must be a non-negative number")
        self.now += seconds
        for watcher in self._watchers:
            watcher(self.now)
        return self.now

    def advance_to(self, when: float) -> float:
        """Advance virtual time to the absolute instant ``when``.

        A no-op if ``when`` is in the past — useful when draining an event
        queue whose head may already be due.
        """
        if when > self.now:
            self.advance(when - self.now)
        return self.now

    def tick_step(self, n: int = 1) -> int:
        """Advance the workload step counter by ``n`` and return it."""
        if n < 0:
            raise ClockError(f"cannot tick step counter by negative count {n!r}")
        self.step += n
        return self.step

    def add_watcher(self, fn) -> None:
        """Register ``fn(now)`` to be called after every time advance.

        Used by the billing meter to accrue node-hours lazily.
        """
        self._watchers.append(fn)

    def reset(self) -> None:
        """Rewind to time zero (watchers are kept)."""
        self.now = 0.0
        self.step = 0
