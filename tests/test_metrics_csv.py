"""Tests for per-step metrics CSV export."""

from repro.core.metrics import MetricsRecorder


def test_steps_to_csv(tmp_path):
    m = MetricsRecorder()
    for i in range(3):
        m.record_query(hit=i % 2 == 0, latency_s=1.5)
        m.end_step(step=i, node_count=i + 1, used_bytes=10 * i,
                   capacity_bytes=100, sim_time_s=float(i), cost_usd=0.1 * i)
    path = tmp_path / "steps.csv"
    m.steps_to_csv(path)
    lines = path.read_text().strip().splitlines()
    # The paper's per-step model (Sec. IV-A) and nothing else.
    assert lines[0] == ("step,queries,hits,misses,evictions,splits,"
                        "allocations,merges,node_count,used_bytes,"
                        "capacity_bytes,latency_sum_s,sim_time_s,cost_usd")
    assert len(lines) == 4
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert first["queries"] == "1"
    assert first["node_count"] == "1"


def test_steps_to_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    MetricsRecorder().steps_to_csv(path)
    assert path.read_text().strip().count("\n") == 0
