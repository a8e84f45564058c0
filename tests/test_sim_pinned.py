"""The simulator's behaviour, pinned.

Seeded mini-scale runs of Fig. 5 (every panel) and Fig. 4 (the Fig. 3 GBA
run), each compared with counts recorded before the simulator's node store
was rebuilt.  A refactor that moves any of them changed what the
simulator does, not just how fast: hits, splits, merges and node-steps
are the paper's figures.
"""

import pytest

from repro.experiments.configs import fig3_params, fig5_params
from repro.experiments.harness import build_elastic, make_trace, run_trace

SEED = 7

FIG5_MINI = {
    50: dict(hits=939, misses=3261, splits=3, allocations=3, merges=3,
             node_steps=311, records=137),
    100: dict(hits=1539, misses=2661, splits=5, allocations=5, merges=4,
              node_steps=505, records=267),
    200: dict(hits=2073, misses=2127, splits=7, allocations=7, merges=4,
              node_steps=836, records=511),
    400: dict(hits=2396, misses=1804, splits=7, allocations=7, merges=0,
              node_steps=930, records=1416),
}

FIG4_MINI = dict(hits=15488, misses=512, splits=54, allocations=16, merges=0,
                 node_steps=5295, records=512)


def run_counts(params) -> dict:
    bundle = build_elastic(params)
    metrics = run_trace(bundle, make_trace(params))
    cache = bundle.cache
    cache.check_integrity()
    summary = metrics.summary(params.timings.service_time_s)
    splits = cache.gba.split_events
    return dict(
        hits=summary["hits"],
        misses=summary["misses"],
        splits=len(splits),
        allocations=sum(e.allocated for e in splits),
        merges=len(cache.contractor.merge_events),
        node_steps=int(metrics.series("node_count").sum()),
        records=cache.record_count,
    )


@pytest.mark.parametrize("window", sorted(FIG5_MINI))
def test_fig5_panel_pinned(window):
    assert run_counts(fig5_params(window, "mini", seed=SEED)) == FIG5_MINI[window]


def test_fig4_run_pinned():
    assert run_counts(fig3_params("mini", seed=SEED)) == FIG4_MINI
