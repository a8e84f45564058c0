"""Compare two result sets, one row per workload and end-to-end metric.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds ``<workload>.jsonl`` files as :mod:`sweep` writes
them.  For each metric the row shows both medians, the change (positive
= worse), and each side's run-to-run spread (quartile distance over the
median).  The verdict uses the metric's bound from ``BENCHMARK.json``:

* ``unresolved`` when either side's spread is wider than the bound,
  unless every new run beats every old run;
* ``REGRESSION`` when the new median is worse by more than the bound;
* ``better`` when it is better by more than the old side's spread;
* ``flat`` otherwise.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from a result set."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        runs = out.setdefault(path.stem, {})
        for line in path.read_text().splitlines():
            for name, metric in json.loads(line)["metrics"].items():
                runs.setdefault(name, []).append(metric["value"])
    return out


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(old: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> tuple[float, str]:
    """``(worsening as a share of the old median, verdict)``."""
    old_med, new_med = statistics.median(old), statistics.median(new)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0
    beats = (max(new) < min(old)) if lower_is_better \
        else (min(new) > max(old))
    if max(spread(old), spread(new)) > bound and not beats:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if -worse > spread(old):
        return worse, "better"
    return worse, "flat"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    old, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':14s} {'metric':15s} {'old':>12s} {'new':>12s} "
          f"{'worse':>7s} {'spr.old':>7s} {'spr.new':>7s} {'bound':>5s}  "
          f"verdict")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in old or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = old[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            worse, word = verdict(a, b, metric["bound"],
                                  metric["better"] == "lower")
            regressions += word == "REGRESSION"
            print(f"{workload:14s} {name:15s} {statistics.median(a):12.4g} "
                  f"{statistics.median(b):12.4g} {worse:+7.1%} "
                  f"{spread(a):7.1%} {spread(b):7.1%} "
                  f"{metric['bound']:5.2f}  {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
