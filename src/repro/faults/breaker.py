"""Per-target circuit breakers over the consecutive-failure detector.

The :class:`~repro.faults.detector.FailureDetector` answers *is this
shard dead?*; a circuit breaker answers the follow-up question the
query path actually asks: *should I even try?*  Without one, every
query routed at a condemned-but-not-yet-repaired shard burns a full
connect timeout before degrading — under a burst that multiplies the
overload instead of relieving it.

Classic three-state machine, one per target:

* **closed** — healthy; requests flow, failures are counted by the
  embedded detector.
* **open** — the detector crossed its consecutive-failure threshold;
  requests *fast-fail* (the caller goes straight to its fallback, here
  degraded-mode recompute) for ``reset_timeout_s``.
* **half-open** — the timeout elapsed; exactly **one** probe request is
  let through.  Success closes the breaker, failure re-opens it and
  restarts the timer.

The breaker deliberately shares vocabulary with the detector
(``record_success``/``record_failure``) so the live coordinator feeds
both from the same observation stream.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Hashable

from repro.faults.detector import FailureDetector

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Fast-fail gate per target, backed by a :class:`FailureDetector`.

    Parameters
    ----------
    threshold:
        Consecutive failures that open the breaker (the embedded
        detector's threshold).  Ignored when ``detector`` is given.
    reset_timeout_s:
        How long an open breaker blocks before letting one probe
        through.
    clock:
        Monotonic time source (injectable for deterministic tests).
    detector:
        Optionally share the coordinator's existing detector so breaker
        and failover decisions see the same failure evidence.

    Examples
    --------
    >>> t = [0.0]
    >>> b = CircuitBreaker(threshold=2, reset_timeout_s=5.0,
    ...                    clock=lambda: t[0])
    >>> b.record_failure("a")           # first failure: still closed
    False
    >>> b.record_failure("a")           # threshold crossed: opens
    True
    >>> b.allow("a")                    # open: fast-fail
    False
    >>> t[0] = 6.0
    >>> b.allow("a")                    # half-open: one probe through
    True
    >>> b.allow("a")                    # ...but only one
    False
    >>> b.record_success("a")
    >>> b.allow("a")                    # probe succeeded: closed again
    True
    """

    def __init__(self, threshold: int = 3, reset_timeout_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 detector: FailureDetector | None = None) -> None:
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.reset_timeout_s = reset_timeout_s
        self.clock = clock
        self.detector = (detector if detector is not None
                         else FailureDetector(threshold=threshold,
                                              clock=clock))
        self._lock = threading.Lock()
        self._opened_at: dict[Hashable, float] = {}
        self._probing: set[Hashable] = set()
        #: state transitions observed, for metrics/timelines
        self.opens = 0
        self.closes = 0

    # ------------------------------------------------------------- state

    def state(self, target: Hashable) -> str:
        """Current state name for ``target``."""
        with self._lock:
            return self._state_locked(target)

    def _state_locked(self, target: Hashable) -> str:
        if target not in self._opened_at:
            return CLOSED
        if (target in self._probing
                or self.clock() - self._opened_at[target]
                >= self.reset_timeout_s):
            return HALF_OPEN
        return OPEN

    def allow(self, target: Hashable) -> bool:
        """May a request be sent to ``target`` right now?

        In half-open state, the first caller gets ``True`` (the probe)
        and concurrent callers get ``False`` until the probe resolves
        via :meth:`record_success`/:meth:`record_failure`.

        With no breaker open anywhere it answers without the lock: a
        breaker opening concurrently orders after this call.
        """
        if not self._opened_at:
            return True
        with self._lock:
            if target not in self._opened_at:
                return True
            if target in self._probing:
                return False  # a probe is already in flight
            if (self.clock() - self._opened_at[target]
                    >= self.reset_timeout_s):
                self._probing.add(target)
                return True
            return False

    # ------------------------------------------------------ observations

    def record_success(self, target: Hashable) -> None:
        """A request to ``target`` completed: close (or keep closed).

        A closed target with no failure streak has nothing to clear, so
        the common case takes no lock; a failure recorded concurrently
        orders after this success."""
        if (target not in self._opened_at
                and not self.detector.failures(target)):
            return
        with self._lock:
            self.detector.record_success(target)
            if target in self._opened_at:
                self._opened_at.pop(target)
                self._probing.discard(target)
                self.detector.mark_recovered(target)
                self.closes += 1

    def record_failure(self, target: Hashable) -> bool:
        """A request to ``target`` failed; returns ``True`` iff this
        observation opened (or re-opened) the breaker."""
        with self._lock:
            now = self.clock()
            if target in self._probing:
                # The half-open probe failed: straight back to open,
                # timer restarted.
                self._probing.discard(target)
                self._opened_at[target] = now
                self.opens += 1
                return True
            opened = self.detector.record_failure(target)
            if opened:
                self._opened_at[target] = now
                self.opens += 1
            return opened

    @property
    def open_targets(self) -> list:
        """Targets whose breaker is currently open or half-open."""
        with self._lock:
            return list(self._opened_at)
