"""The benchmark's simulator spans stay on the simulator's path.

``perfbench/layers.py::install_sim`` wraps the simulator's hot-path
methods by name (``Coordinator.query``, the elastic cache's
``get``/``put``/``record_query``/``end_time_slice``, GBA's ``insert``,
the metrics hooks, ``Service.execute``, the ring lookup and the sliding
window).  A rewrite that stops calling one of them through its patched
name — inlines it, renames it, or reaches it through a captured bound
method — silently zeroes that layer's per-layer metric.  This replays one
mini Fig. 5 panel under the installer and fails on such a zero instead.
"""

from pathlib import Path

from repro.experiments import harness
from repro.experiments.configs import fig5_params

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The B+-tree spans ``install_sim`` shares with the server installer.
#: The simulator's node stores bulk-load their ordered index
#: (``BPlusTree.from_sorted``) and sweep its leaves, so a simulated run
#: never enters ``search``/``insert``/``delete``: these read 0 there.
SERVER_ONLY = {"btree.search", "btree.insert", "btree.pop"}


def test_a_mini_fig5_panel_enters_every_sim_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    class Recording(Tracer):
        """A tracer that keeps the name of every span it installs."""

        def __init__(self) -> None:
            super().__init__()
            self.installed: set[str] = set()

        def patch(self, owner, attr, name, on_result=None, adapt=None):
            self.installed.add(name)
            super().patch(owner, attr, name, on_result=on_result,
                          adapt=adapt)

    tracer = Recording()
    layers.install_sim(tracer)
    try:
        params = fig5_params(100, "mini", seed=7)
        bundle = harness.build_elastic(params)
        harness.run_trace(bundle, harness.make_trace(params))
    finally:
        tracer.restore()

    entered = {name for name, *_ in tracer.spans()}
    assert "sim.coordinator.query" in tracer.installed
    assert tracer.installed - entered <= SERVER_ONLY, \
        sorted(tracer.installed - entered - SERVER_ONLY)
