"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload diurnal-base --seed 1 --seconds 10 --trace 0

Each replay runs alone in a fresh single-threaded child (``child.py``).
With ``--trace 0`` one untraced child reports the end-to-end metrics.
With ``--trace 1`` an untraced child and then a traced child run on the
same seed, slices and probe; the traced one reports the per-layer
metrics, and ``trace.overhead_frac`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check reports ``correct: false`` with every arrival counted as failed and
no metrics.  Without the program's sources (``src/repro``) the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from workloads import names as workload_names  # noqa: E402

#: Wall-clock budget of one invocation of this script, children included.
BUDGET_SECONDS = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "norm_inv_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_served_frac": "fraction",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "sim.events.self_us": "us/arrival",
    "sim.events.per_inv": "events/arrival",
    "faas.controller.self_us": "us/arrival",
    "faas.scheduler.self_us": "us/arrival",
    "faas.scheduler.select_us": "us/arrival",
    "faas.scheduler.steals": "count",
    "faas.scheduler.routing_skew": "ratio",
    "faas.invoker.self_us": "us/arrival",
    "faas.invoker.warm_frac": "fraction",
    "faas.invoker.cold_starts": "count",
    "faas.invoker.restores": "count",
    "faas.invoker.snapshot_discard_frac": "fraction",
    "faas.invoker.queue_wait_p99_ms": "ms",
    "faas.container.self_us": "us/arrival",
    "faas.container.boot_us": "us/arrival",
    "faas.container.executions_retained": "count",
    "core.policy.self_us": "us/arrival",
    "core.manager.self_us": "us/arrival",
    "core.restore.self_us": "us/arrival",
    "core.snapshot.self_us": "us/arrival",
    "runtime.self_us": "us/arrival",
    "core.restore.pages_restored_per_req": "pages/restore",
    "core.restore.unavailable_ms": "ms",
    "faas.metrics.write_us": "us/arrival",
    "faas.metrics.read_us": "us/arrival",
    "faas.controlplane.self_us": "us/arrival",
    "faas.controlplane.ticks": "count",
    "bench.driver.self_us": "us/arrival",
    "python.gc_us": "us/arrival",
    "trace.overhead_frac": "fraction",
}

#: Child outputs that must be identical between the untraced and the
#: traced replay of one seed.
SIM_FIELDS = ("arrivals", "status", "sim_samples", "sim_p50_ms", "sim_p99_ms", "sim_served_frac")


class ChildFailed(Exception):
    """A child exited badly, ran out of time, or printed no result."""


def _terminate(signum, frame):  # noqa: ARG001 - signal handler signature
    raise SystemExit(128 + signum)


def run_child(workload: str, seed: int, seconds: int, traced: bool, deadline: float) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if traced:
        command.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{workload} child ran past the {BUDGET_SECONDS:.0f} s budget") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} child exited with {done.returncode}:\n{done.stderr[-3000:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError as error:
        raise ChildFailed(f"{workload} child printed no result: {lines[-1][:200]}") from error


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {name: _metric(result[name], unit) for name, unit in END_TO_END.items()}


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    values = dict(traced["layers"]["metrics"])
    values["trace.overhead_frac"] = 1.0 - traced["norm_inv_per_s"] / untraced["norm_inv_per_s"]
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def print_end_to_end(result: Dict[str, Any]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  arrivals {result['arrivals']}  "
          f"status {result['status']}")
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "sim_p99_ms":
            extra = (f"   ({result['sim_samples']} post-warm-up samples, "
                     f"{result.get('sim_beyond_p99', 0)} beyond p99)")
        print(f"  {name:<18} {result.get(name, float('nan')):>14.6g} {unit}{extra}")
    print(f"  host.raw_inv_per_s {result['raw_inv_per_s']:>14.6g} 1/s   (diagnostic only)")
    print(f"  host.probe_ms      {result['probe_ms']:>14.6g} ms    (diagnostic only)")


def print_layers(metrics: Dict[str, Dict[str, Any]], layers: Dict[str, Any]) -> None:
    print("per-layer metrics (traced run; *_us are reference-host us per arrival):")
    for name, metric in metrics.items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    print("boundaries (calls, self us/arrival, inclusive us/arrival):")
    for name, row in layers["boundaries"].items():
        print(f"  {name:<38} {row['bucket']:<22} {row['calls']:>10} "
              f"{row['self_us']:>10.3f} {row['incl_us']:>10.3f}")
    if layers["absent"]:
        print(f"absent layers (boundary gone): {', '.join(layers['absent'])}")
    print(f"untraced callbacks: {layers['other_us']:.3f} us/arrival; spans of "
          f"{layers['sampled_arrivals']} sampled arrivals in {layers['spans_file']}")


def failed_result(attempted: int) -> Dict[str, Any]:
    attempted = max(1, attempted)
    return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_SECONDS
    try:
        untraced = run_child(args.workload, args.seed, args.seconds, False, deadline)
        traced = (
            run_child(args.workload, args.seed, args.seconds, True, deadline)
            if args.trace else None
        )
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        print(json.dumps(failed_result(0)))
        return 1
    failures: List[str] = list(untraced["failures"])
    print_end_to_end(untraced)
    if traced is not None:
        failures += [f"traced: {failure}" for failure in traced["failures"]]
        for field in SIM_FIELDS:
            if traced.get(field) != untraced.get(field):
                failures.append(
                    f"traced {field} {traced.get(field)!r} differs from untraced "
                    f"{untraced.get(field)!r}"
                )
    attempted = untraced["arrivals"]
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        print(json.dumps(failed_result(attempted)))
        return 0
    if traced is None:
        metrics = end_to_end(untraced)
    else:
        metrics = per_layer(untraced, traced)
        print_layers(metrics, traced["layers"])
    served = untraced["status"].get("completed", 0)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": attempted - served,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
