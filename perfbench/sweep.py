"""Run the benchmark over several seeds and keep every result line.

    python3 perfbench/sweep.py --out DIR [--runs 10] [--workloads a,b]

Runs seeds 1..runs for ``run_seconds`` from ``BENCHMARK.json`` with
``--trace 0`` and writes ``DIR/<workload>.jsonl``, one result line per
run, as :mod:`compare` reads them.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        path = args.out / f"{workload}.jsonl"
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
                check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            with path.open("a") as out:
                out.write(lines[-1] + "\n")
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
