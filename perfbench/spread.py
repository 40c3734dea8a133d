#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload jet-levels --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs and the distance between their
first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound in BENCHMARK.json.  The benchmark is
steady when every spread except setup_s is under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        line = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in line.items()), flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(runs, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:12s} median={median:.5g} {metric['unit']:5s} spread={spread:.3f} "
              f"bound={metric['bound']} ({'ok' if spread < metric['bound'] / 3 else 'WIDE'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
