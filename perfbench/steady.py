"""Steadiness tool: repeat each workload and report how much its metrics move.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--seconds 20] [--workloads diurnal-base ...]
                                [--seed 1] [--same-seed] [--trace 0] [--out FILE]

Run ``i`` uses seed ``--seed + i`` (or ``--seed`` itself with
``--same-seed``).  Every run goes through ``run.py`` in a fresh process,
one at a time (never two at once), and the workload order alternates from
one round to the next.  For each workload and metric the tool prints the
median, the quartiles, the spread (``(q3 - q1) / median``, with
``statistics.quantiles(values, n=4)``) and the shift between the medians
of the first and the second half of the runs, each as a share of the
median.  Spreads at or above a third of the metric's bound in
``BENCHMARK.json`` are flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def share(value: float, base: float) -> float:
    return value / base if base else 0.0


def summarise(workload: str, results: List[Dict], bounds: Dict[str, float]) -> None:
    print(f"\n{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
    print(f"  {'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'halves':>8}")
    names = sorted({name for result in results for name in result["metrics"]})
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        half = len(values) // 2
        shift = statistics.median(values[half:]) - statistics.median(values[:half])
        spread = share(q3 - q1, median)
        flag = ""
        bound = bounds.get(name)
        if bound is not None and name != "setup_s" and abs(spread) >= bound / 3:
            flag = f"  <- spread >= bound/3 ({bound})"
        print(f"  {name:<38} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {share(shift, median):>+8.3f}{flag}")


def main() -> int:
    benchmark = load_benchmark()
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat workloads and report metric spread.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every run's result to this JSON file")
    args = parser.parse_args()
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    results: Dict[str, List[Dict]] = {name: [] for name in args.workloads}
    for index in range(args.runs):
        order = args.workloads if index % 2 == 0 else list(reversed(args.workloads))
        seed = args.seed if args.same_seed else args.seed + index
        for workload in order:
            result = run_once(workload, seed, args.seconds, args.trace)
            results[workload].append(result)
            print(f"run {index + 1}/{args.runs} {workload} seed {seed}: correct {result['correct']}",
                  flush=True)
    for workload in args.workloads:
        summarise(workload, results[workload], bounds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
