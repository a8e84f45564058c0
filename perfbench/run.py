"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds nothing (pure Python): it imports
``repro`` from ``src/`` next to this directory.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  Exits 1 when an output check fails, 2 when the
program under test is missing, and 3 when the metrics printed would not
match the lists in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("sim-fig5", "live-read", "live-elastic", "live-batch")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.workload == "sim-fig5":
        import sim_fig5
        outcome = sim_fig5.run(args.seed, args.seconds, bool(args.trace))
    else:
        import live
        outcome = live.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    result = outcome.result()
    declared = _declared_metrics(bool(args.trace))
    if declared is not None and declared != set(result["metrics"]):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(declared ^ set(result['metrics']))}",
              file=sys.stderr)
        return 3
    for problem in outcome.mismatches:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _declared_metrics(trace: bool) -> set[str] | None:
    """Metric names ``BENCHMARK.json`` declares for this kind of run."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
