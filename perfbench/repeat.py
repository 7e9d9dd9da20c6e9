"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload classify --seeds 1-10 --seconds 30

Runs run.py in a fresh process per seed, one after another, and prints
for each end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vs in values.items():
        med, q1, q3, spread = stats.spread(vs)
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
