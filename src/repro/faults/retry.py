"""Bounded retry with exponential backoff and jitter.

The paper's EC2 deployment tolerated transient connection loss by
retrying idempotent cache operations; this module is the reusable policy
behind :class:`~repro.live.client.LiveCacheClient`.  Two invariants are
load-bearing (and property-tested):

* the total time budget — initial attempt plus every backoff sleep —
  **never exceeds** ``deadline_s``: a retry that would sleep past the
  deadline is abandoned and the last error re-raised;
* at most ``max_attempts`` calls are made, jitter or not.

Retrying is only ever correct for operations that are safe to resend.
Every live client op is: ``get``, ``delete``, ``ping`` and ``stats``;
``put`` (same key ⇒ same derived bytes); ``sweep`` (read-only);
``extract_prepare`` (it retains its records — a replay takes a fresh
token and the stale one lease-expires); ``extract_commit`` and
``extract_abort`` (idempotent at the server); and the batched
``multi_get``/``multi_put``, which resend only their unacknowledged
suffix.  A one-shot destructive extract would not qualify — a replay
would lose the records the first half-run removed — which is why
extraction is two-phase.  The client retries only transport failures:
a typed refusal (``REFUSALS`` in :mod:`repro.live.protocol`) is every
call's ``give_up_on``, raised at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, how long, and how spaced-out to retry.

    Parameters
    ----------
    max_attempts:
        Total call attempts, including the first (``1`` disables retry).
    deadline_s:
        Hard wall-clock budget for the whole retried call.
    base_delay_s, multiplier, max_delay_s:
        Exponential backoff: sleep ``base * multiplier**(n-1)`` after the
        ``n``-th failure, clamped to ``max_delay_s``.
    jitter:
        Fractional randomization of each sleep: the delay is scaled by a
        uniform factor in ``[1-jitter, 1+jitter]``.  Jitter decorrelates
        a thundering herd of clients re-attacking a recovering server.
    """

    max_attempts: int = 3
    deadline_s: float = 5.0
    base_delay_s: float = 0.02
    multiplier: float = 2.0
    max_delay_s: float = 0.25
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt)."""
        return cls(max_attempts=1)

    def backoff_s(self, failures: int, rng=None) -> float:
        """The sleep after the ``failures``-th consecutive failure."""
        if failures < 1:
            raise ValueError("failures is 1-based")
        delay = min(self.max_delay_s,
                    self.base_delay_s * self.multiplier ** (failures - 1))
        if rng is not None and self.jitter and delay:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


def call_with_retry(
    fn: Callable[[], object],
    policy: RetryPolicy,
    *,
    retry_on: tuple[type[BaseException], ...] | Iterable = (OSError,),
    give_up_on: tuple[type[BaseException], ...] | Iterable = (),
    rng=None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
    failed: BaseException | None = None,
    started: float | None = None,
):
    """Call ``fn`` under ``policy``; re-raise its last error on give-up.

    ``clock`` and ``sleep`` are injectable so tests (and the simulator)
    can retry in virtual time.  ``on_retry(failures, exc)`` fires once
    per *scheduled* retry — i.e. never for the final, abandoned failure.
    ``give_up_on`` lists exceptions that propagate immediately even when
    they are subclasses of a ``retry_on`` entry — e.g. an exhausted
    per-op deadline, where another attempt can only fail the same way.

    ``failed`` resumes a call whose first attempt the caller already
    made itself, from ``started`` (a ``clock`` reading), and which
    raised ``failed`` (a ``retry_on`` error): that attempt counts as the
    first of ``max_attempts`` and the deadline runs from ``started``.
    So a caller can keep its success path out of this function and
    still retry under exactly the policy it would have run under here.
    """
    retry_on = tuple(retry_on)
    give_up_on = tuple(give_up_on)
    t0 = clock() if started is None else started
    failures = 0
    exc = failed
    while True:
        if exc is None:
            try:
                return fn()
            except give_up_on:
                raise
            except retry_on as caught:
                exc = caught
        failures += 1
        if failures >= policy.max_attempts:
            raise exc
        delay = policy.backoff_s(failures, rng)
        if clock() - t0 + delay > policy.deadline_s:
            raise exc
        if on_retry is not None:
            on_retry(failures, exc)
        exc = None
        sleep(delay)
