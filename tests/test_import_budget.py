"""Import budget: which modules a process loads, not how long it takes.

A cache server process (a perfbench server child, a spare booted for
growth, ``python -m repro serve``) imports ``repro.live.server`` and
must not pay for the simulator, the cloud model, NumPy or SciPy.  Nor
must a live client process (a load generator, ``repro check``), which
needs only the ring, the retry policy and the breaker.  The package
``__init__`` files re-export their names lazily (PEP 562), so these
checks pin *which* modules load in a fresh interpreter; a timing bound
would be flaky on a shared host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.faults
import repro.live

#: never loaded by a process that only serves the cache
SIMULATOR_MODULES = ("numpy", "scipy", "repro.core", "repro.sim",
                     "repro.cloud", "repro.faults", "repro.services",
                     "repro.experiments", "repro.check")


#: never loaded by a live client: it routes with ``repro.core.ring`` and
#: retries with ``repro.faults.retry``, nothing else of either package
CLIENT_FORBIDDEN = ("numpy", "scipy", "repro.sim", "repro.cloud",
                    "repro.services", "repro.experiments", "repro.check",
                    "repro.core.cachenode", "repro.core.elastic",
                    "repro.core.gba", "repro.core.coordinator",
                    "repro.core.metrics", "repro.faults.driver",
                    "repro.faults.plan", "repro.faults.proxy",
                    "repro.faults.simfaults")

LAZY_PACKAGES = [repro, repro.core, repro.faults, repro.live]


def _env() -> dict:
    """The test's environment, with this checkout's ``repro`` first."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _loaded_after(code: str, watch=SIMULATOR_MODULES) -> list[str]:
    """Which of ``watch`` a fresh interpreter has loaded after ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {list(watch)!r} "
             f"if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], env=_env(),
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_server_import_loads_no_simulator():
    assert _loaded_after("import repro.live.server") == []


@pytest.mark.parametrize("module", ["repro.live.client",
                                    "repro.live.coordinator"])
def test_client_import_loads_no_simulator(module):
    assert _loaded_after(f"import {module}", watch=CLIENT_FORBIDDEN) == []


def test_ring_hash_needs_no_numpy():
    assert _loaded_after("from repro.core.ring import ConsistentHashRing\n"
                         "from repro.hashing import stable_key_hash\n"
                         "r = ConsistentHashRing(8, hash_mode='splitmix')\n"
                         "assert r.hash_key(3) == stable_key_hash(3)",
                         watch=("numpy",)) == []


def test_submodule_import_through_lazy_package():
    # `from repro.live import protocol` falls back to the submodule only
    # because the package's __getattr__ raises AttributeError for it
    assert _loaded_after("from repro.live import protocol\n"
                         "assert protocol.__name__ == 'repro.live.protocol'"
                         ) == []


def test_serve_command_loads_no_numpy_or_scipy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve",
         "--port", "0", "--run-seconds", "0.2"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "server stopped" in proc.stdout
    assert "repro.live.server" in proc.stderr  # importtime did report
    heavy = [line for line in proc.stderr.splitlines()
             if "numpy" in line or "scipy" in line]
    assert heavy == [], heavy[:5]


def test_simulator_harness_does_not_load_scipy():
    # only a flood map needs scipy.ndimage; it is imported at that call
    assert _loaded_after("import repro.experiments.harness",
                         watch=("scipy",)) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES,
                         ids=lambda p: p.__name__)
def test_every_export_resolves_to_its_defining_object(package):
    listed = dir(package)
    for name in package.__all__:
        assert name in listed
        obj = getattr(package, name)
        if name == "__version__":
            continue
        assert obj is getattr(sys.modules[package._EXPORTS[name]], name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__module__.startswith(package.__name__ + ".")
            assert obj is getattr(sys.modules[obj.__module__], name)


@pytest.mark.parametrize("package", LAZY_PACKAGES,
                         ids=lambda p: p.__name__)
def test_unknown_attribute_raises(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_star_import_binds_every_export():
    for package in LAZY_PACKAGES:
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)
