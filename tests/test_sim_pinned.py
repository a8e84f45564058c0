"""The simulator's behaviour, pinned.

Seeded mini-scale runs of Fig. 5 (every panel) and Fig. 4 (the Fig. 3 GBA
run), each compared with counts recorded before the simulator's node store
was rebuilt.  A refactor that moves any of them changed what the
simulator does, not just how fast: hits, splits, merges and node-steps
are the paper's figures.

The Fig. 5 panels also pin three floats exactly (``==``, not approx):
the final cumulative speedup, the virtual clock at the last step's end
and the sum of the per-step latency totals.  They were recorded before
the query hot path's metrics accumulation was rewritten; a change in
how latency is charged or summed moves at least one of them.
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

FIG5_MINI_FLOATS = {
    50: dict(final_speedup=1.2720302472613847,
             last_sim_time_s=75941.61519064524,
             latency_sum_s=75941.59038904523),
    100: dict(final_speedup=1.5434100825117798,
              last_sim_time_s=62588.71703775577,
              latency_sum_s=62588.6801534891),
    200: dict(final_speedup=1.9049162184795436,
              last_sim_time_s=50710.92964663517,
              latency_sum_s=50710.89167223517),
    400: dict(final_speedup=2.224393000315246,
              last_sim_time_s=43427.57776450008,
              latency_sum_s=43427.57776450008),
}

FIG4_MINI = dict(hits=15488, misses=512, splits=54, allocations=16, merges=0,
                 node_steps=5295, records=512)


def run_pinned(params) -> tuple[dict, dict]:
    """``(counts, floats)`` of one seeded run."""
    bundle = build_elastic(params)
    metrics = run_trace(bundle, make_trace(params))
    cache = bundle.cache
    cache.check_integrity()
    summary = metrics.summary(params.timings.service_time_s)
    splits = cache.gba.split_events
    floats = dict(
        final_speedup=summary["final_speedup"],
        last_sim_time_s=metrics.steps[-1].sim_time_s,
        latency_sum_s=sum(s.latency_sum_s for s in metrics.steps),
    )
    counts = dict(
        hits=summary["hits"],
        misses=summary["misses"],
        splits=len(splits),
        allocations=sum(e.allocated for e in splits),
        merges=len(cache.contractor.merge_events),
        node_steps=int(metrics.series("node_count").sum()),
        records=cache.record_count,
    )
    return counts, floats


@pytest.mark.parametrize("window", sorted(FIG5_MINI))
def test_fig5_panel_pinned(window):
    counts, floats = run_pinned(fig5_params(window, "mini", seed=SEED))
    assert counts == FIG5_MINI[window]
    assert floats == FIG5_MINI_FLOATS[window]


def test_fig4_run_pinned():
    counts, _ = run_pinned(fig3_params("mini", seed=SEED))
    assert counts == FIG4_MINI
