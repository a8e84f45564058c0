"""Shared fixtures for the test suite, plus a per-test timeout net.

A wedged socket test (server thread stuck, client blocked in ``recv``)
must fail loudly, not hang CI forever.  When the ``pytest-timeout``
plugin is installed it enforces the ``timeout`` ini value; when it is
not (this repo cannot assume it), a SIGALRM-based fallback below
provides the same guarantee on platforms that support it.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cloud.network import NetworkModel
from repro.cloud.provider import SimulatedCloud
from repro.core.config import CacheConfig, ContractionConfig, EvictionConfig
from repro.core.elastic import ElasticCooperativeCache
from repro.live.client import MultiPutResult
from repro.live.migration import TransferLedger
from repro.live.protocol import ProtocolError
from repro.sim.clock import SimClock

# ------------------------------------------------- per-test timeout net

#: default per-test budget; generous because chaos tests sleep on purpose.
DEFAULT_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


def _have_timeout_plugin(config) -> bool:
    return config.pluginmanager.hasplugin("timeout")


def pytest_addoption(parser):
    try:
        # Mirror pytest-timeout's ini key so the pinned value in
        # pyproject.toml works with or without the plugin installed.
        parser.addini("timeout", "per-test timeout in seconds "
                      "(fallback implementation)", default=None)
    except ValueError:  # pragma: no cover - pytest-timeout registered it
        pass


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM per-test deadline when pytest-timeout is unavailable.

    Only active where it can work: the real plugin is absent, the
    platform has SIGALRM (not Windows), and the test runs on the main
    thread (signal delivery requirement).
    """
    usable = (not _have_timeout_plugin(item.config)
              and hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return
    timeout = DEFAULT_TIMEOUT_S
    ini = item.config.getini("timeout")
    if ini:
        timeout = float(ini)
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        timeout = float(marker.args[0])
    if timeout <= 0:
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded the {timeout:.0f}s per-test timeout "
                    "(fallback SIGALRM net; see tests/conftest.py)",
                    pytrace=True)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(int(math.ceil(timeout)))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_stores(servers) -> None:
    """Assert every primary and replica store of the live ``servers`` is
    consistent (see :meth:`repro.btree.store.NodeStore.check`)."""
    for server in servers:
        for store in (server.store, server.replica_store):
            with store.lock:
                store.records.check()


def wait_until(predicate, *, timeout_s: float = 10.0,
               interval_s: float = 0.01, desc: str = "condition"):
    """Poll ``predicate`` until it returns truthy; fail loudly otherwise.

    The deflake primitive: tests that await asynchronous state (a lease
    expiring, a background thread draining, a failover settling) must
    poll a condition with a bound, never ``time.sleep(<guess>)`` — a
    fixed sleep is both too slow on fast machines and too short on a
    loaded single-core CI runner.  Returns the predicate's final value.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            pytest.fail(f"timed out after {timeout_s:.1f}s waiting for "
                        f"{desc} (last value: {value!r})")
        time.sleep(interval_s)


@pytest.fixture(name="wait_until")
def wait_until_fixture():
    """The :func:`wait_until` poller as a fixture."""
    return wait_until


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def cloud(clock, rng) -> SimulatedCloud:
    """A provider with fast, deterministic-ish boots and a high quota."""
    return SimulatedCloud(clock=clock, rng=rng, boot_mean_s=60.0,
                          boot_std_s=10.0, max_nodes=64)


@pytest.fixture
def network() -> NetworkModel:
    return NetworkModel()


def make_cache(cloud, network, *, capacity_bytes=4096, ring_range=1 << 12,
               window=None, alpha=0.99, threshold=None, epsilon=2,
               merge_threshold=0.65, greedy=True,
               initial_nodes=1) -> ElasticCooperativeCache:
    """Helper: a small elastic cache for unit tests."""
    return ElasticCooperativeCache(
        cloud=cloud,
        network=network,
        config=CacheConfig(
            ring_range=ring_range,
            node_capacity_bytes=capacity_bytes,
            greedy=greedy,
            initial_nodes=initial_nodes,
        ),
        eviction=EvictionConfig(window_slices=window, alpha=alpha,
                                threshold=threshold),
        contraction=ContractionConfig(epsilon_slices=epsilon,
                                      merge_threshold=merge_threshold),
    )


@pytest.fixture
def small_cache(cloud, network) -> ElasticCooperativeCache:
    """Capacity of ~40 records of 100 B each."""
    return make_cache(cloud, network, capacity_bytes=4096)


# ---------------------------------------------- in-memory range-move ends


class FakeSource:
    """An in-memory migration source speaking the two-phase extract
    surface with the live server's ledger semantics: prepare snapshots
    and *retains*, commit deletes (idempotently), abort releases.
    ``replica`` is the namespace every call must name."""

    def __init__(self, records, replica: bool = False):
        self.records = dict(records)
        self.ledger = TransferLedger(lease_s=1e9)
        self.replica = replica
        self.aborts = 0
        self.commits = 0

    def extract_prepare(self, lo, hi, replica=False):
        assert replica == self.replica, "wrong namespace"
        recs = [(k, v) for k, v in sorted(self.records.items())
                if lo <= k <= hi]
        return self.ledger.prepare(lo, hi, recs), recs

    def extract_commit(self, token, replica=False):
        assert replica == self.replica, "wrong namespace"
        self.commits += 1
        xfer = self.ledger.commit(token)
        if xfer is None:
            return 0
        return sum(self.records.pop(k, None) is not None for k in xfer.keys)

    def extract_abort(self, token, replica=False):
        assert replica == self.replica, "wrong namespace"
        self.aborts += 1
        return self.ledger.abort(token)


class FakeDest:
    """An in-memory destination primary store: ``multi_put`` honours
    ``if_absent`` and, once, refuses at key ``fail_at`` after applying
    the records before it (a partial copy, as the wire reports one)."""

    def __init__(self, resident=(), fail_at=None):
        self.store = dict(resident)
        self.fail_at = fail_at

    def multi_put(self, records, if_absent=False):
        result = MultiPutResult()
        for key, value in records:
            if key == self.fail_at:
                self.fail_at = None
                result.error = ProtocolError("destination died mid-copy")
                return result
            if if_absent and key in self.store:
                result.skipped.append(key)
                continue
            self.store[key] = value
            result.stored.append(key)
        return result
