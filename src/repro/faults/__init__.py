"""Fault injection and failure recovery for the elastic cache.

The paper's cluster ran on real EC2 instances, where node loss and
transient network faults are routine; this package makes those failures
*first-class, scriptable inputs* to both execution modes and provides
the recovery machinery the consumers use to survive them:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultEvent`, a
  declarative fault script shared by the simulator and the live stack.
* :mod:`repro.faults.simfaults` — :class:`SimFaultInjector` +
  :class:`FaultyCache`, wiring a plan into the sim's event queue.
* :mod:`repro.faults.driver` — :class:`LiveFaultDriver`, replaying a
  plan against real servers and proxies, keyed by query index.
* :mod:`repro.faults.proxy` — :class:`FaultProxy`, a frame-aware TCP
  man-in-the-middle that drops/delays/garbles frames and partitions a
  real server under test.
* :mod:`repro.faults.retry` — :class:`RetryPolicy` (deadline +
  exponential backoff + jitter) and :func:`call_with_retry`.
* :mod:`repro.faults.detector` — :class:`FailureDetector`,
  consecutive-error health tracking used by the live coordinator.
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`, the
  closed/open/half-open fast-fail gate layered on the detector so a
  condemned shard stops costing a connect timeout per query.

The design invariant throughout: the cache holds only *derived* results,
so recompute-on-miss is always a correct fallback — a dead cache node
may cost latency, never correctness.
"""

import importlib

#: public name -> its defining module, imported on first use (PEP 562),
#: so a live client that needs only the retry policy loads neither the
#: simulator-side injector nor the proxy.
_EXPORTS = {
    "ELASTIC_KINDS": "repro.faults.plan",
    "KINDS": "repro.faults.plan",
    "WINDOWED_KINDS": "repro.faults.plan",
    "CircuitBreaker": "repro.faults.breaker",
    "FaultEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FaultProxy": "repro.faults.proxy",
    "FailureDetector": "repro.faults.detector",
    "FaultyCache": "repro.faults.simfaults",
    "LiveFaultDriver": "repro.faults.driver",
    "RetryPolicy": "repro.faults.retry",
    "SimFaultInjector": "repro.faults.simfaults",
    "SimFaultStats": "repro.faults.simfaults",
    "call_with_retry": "repro.faults.retry",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
