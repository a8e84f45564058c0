"""Service abstraction: what the cache accelerates.

A :class:`Service` maps an integer key (a linearized spatiotemporal input,
see :mod:`repro.sfc`) to a :class:`ServiceResult`, advancing the virtual
clock by its execution time.  Determinism per key is the property the whole
paper rests on — "because service requests ... are often related, a
considerable amount of redundancy among these services can be exploited".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.sim.clock import SimClock


class ServiceResult(NamedTuple):
    """A derived result as handed to the cache (immutable: assignment
    raises ``AttributeError``; a named tuple, so a miss builds it with
    one ``tuple.__new__``).

    Attributes
    ----------
    key:
        The input key this result derives from.
    payload:
        The computed data (polyline vertices, composed map tile, ...).
    nbytes:
        Serialized size — what the cache charges against node capacity.
    exec_time_s:
        Virtual seconds the computation took (diagnostic).
    """

    key: int
    payload: Any
    nbytes: int
    exec_time_s: float = 0.0


class Service(abc.ABC):
    """Base class for derived-data services.

    Subclasses implement :meth:`compute` (the actual work + a returned
    payload and size); :meth:`execute` wraps it with virtual-time
    accounting and invocation counting.

    Parameters
    ----------
    name:
        Registry identifier.
    clock:
        The experiment clock to charge execution time against.
    service_time_s:
        Nominal execution time per request (the paper's ~23 s).
    """

    def __init__(self, name: str, clock: SimClock, service_time_s: float = 23.0) -> None:
        self.name = name
        self.clock = clock
        self.service_time_s = service_time_s
        self.invocations = 0

    @abc.abstractmethod
    def compute(self, key: int) -> tuple[Any, int]:
        """Do the work for ``key``; return ``(payload, nbytes)``."""

    def execution_time(self, key: int) -> float:
        """Virtual execution time for this request (constant by default;
        subclasses may make it input-dependent)."""
        return self.service_time_s

    def execute(self, key: int) -> ServiceResult:
        """Run the service for ``key``, advancing the clock."""
        exec_time = self.execution_time(key)
        payload, nbytes = self.compute(key)
        self.clock.advance(exec_time)
        self.invocations += 1
        return ServiceResult(key, payload, nbytes, exec_time)


class SyntheticService(Service):
    """A service that only costs (virtual) time.

    Used by full-scale benchmark runs: the cache never looks inside the
    payload, so skipping the real computation changes nothing observable
    while letting 2×10⁶-query experiments finish in seconds of real time.

    Parameters
    ----------
    result_bytes:
        Fixed serialized size of every result (the paper normalizes
        ``sizeof(k, v) = 1`` in its analysis the same way).
    """

    def __init__(self, clock: SimClock, service_time_s: float = 23.0,
                 result_bytes: int = 1024, name: str = "synthetic") -> None:
        super().__init__(name, clock, service_time_s)
        self.result_bytes = result_bytes

    def compute(self, key: int) -> tuple[Any, int]:
        """Return an opaque token; no real work."""
        return f"derived:{key}", self.result_bytes


@dataclass
class ServiceRegistry:
    """Discovery/sharing of services — the Cloud's "multitude of services,
    shared by various parties" (Sec. I), minimally.

    Examples
    --------
    >>> from repro.sim import SimClock
    >>> reg = ServiceRegistry()
    >>> svc = SyntheticService(SimClock())
    >>> reg.register(svc)
    >>> reg.lookup("synthetic") is svc
    True
    """

    _services: dict[str, Service] = field(default_factory=dict)

    def register(self, service: Service) -> None:
        """Publish a service under its name."""
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already registered")
        self._services[service.name] = service

    def lookup(self, name: str) -> Service:
        """Find a service by name.

        Raises
        ------
        KeyError
            If no service is registered under ``name``.
        """
        return self._services[name]

    def names(self) -> list[str]:
        """All registered service names, sorted."""
        return sorted(self._services)
