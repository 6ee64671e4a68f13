"""One workload replay in a fresh process; prints one JSON result line.

Run by ``run.py`` (one child per replay, never two at once)::

    python3 perfbench/child.py --workload diurnal-base --seed 1 --seconds 10 [--traced]

The child builds the reference probe, imports the program from the
checkout's ``src``, times repeated set-ups, then replays the seeded
arrival list open loop: arrivals are scheduled on the program's event loop
at exactly their due times, ``FaaSCluster.run(until=...)`` advances virtual
time in fixed slices, and the probe is timed between slices.  Because an
arrival fires when due by construction, the generator is never late.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from arrivals import Arrivals, generate  # noqa: E402
from probe import P_REF_SECONDS, ReferenceProbe  # noqa: E402
from workloads import SETUP_ROUNDS, SLICES_PER_RUN, Workload  # noqa: E402

#: Virtual-time slices the replay may run past the last arrival while the
#: cluster drains, as a multiple of the replay's own slice count.
DRAIN_SLICE_FACTOR = 10
#: Label of the benchmark's arrival events on the program's event loop.
ARRIVAL_LABEL = "bench-arrival"
#: Wall time between two probes: the slices in between form one segment,
#: scaled by the mean of the probes at its ends.
PROBE_INTERVAL_SECONDS = 0.1


def import_program() -> Any:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"repro was imported from {repro.__file__}, not {src}")
    return repro


def status_mb(field: str) -> float:
    """One memory field of ``/proc/self/status`` (``VmHWM``, ``VmRSS``), in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def percentile(ordered: array, pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure_setup(workload: Workload, repro: Any, probe: ReferenceProbe):
    """Time repeated identical set-ups; return (per-set-up ref-s, raw s, cluster).

    Set-ups are timed one by one and the probe is timed whenever another
    ``PROBE_INTERVAL_SECONDS`` of set-up wall time has passed; each segment
    is scaled by the mean of the probes at its ends.  The result is the
    median over rounds of the mean normalised set-up time.  The last
    cluster built is the one the replay runs on.
    """
    cluster = None
    normalised: List[float] = []
    raw: List[float] = []
    last_probe = probe.measure()
    for _ in range(SETUP_ROUNDS):
        cluster = None
        gc.collect()
        round_normalised = 0.0
        round_raw = 0.0
        segment = 0.0
        for index in range(workload.setups_per_round):
            cluster = None
            started = time.perf_counter()
            cluster, _actions = workload.build(repro)
            wall = time.perf_counter() - started
            segment += wall
            round_raw += wall
            if segment >= PROBE_INTERVAL_SECONDS or index == workload.setups_per_round - 1:
                now_probe = probe.measure()
                round_normalised += segment * P_REF_SECONDS / ((last_probe + now_probe) / 2.0)
                last_probe = now_probe
                segment = 0.0
        raw.append(round_raw / workload.setups_per_round)
        normalised.append(round_normalised / workload.setups_per_round)
    return statistics.median(normalised), statistics.median(raw), cluster


class Driver:
    """The open-loop driver: feeds arrivals and collects completions."""

    def __init__(self, cluster: Any, workload: Workload, arrivals: Arrivals) -> None:
        self.cluster = cluster
        self.workload = workload
        self.arrivals = arrivals
        self.callbacks = bytearray(len(arrivals))
        self.callbacks_total = 0
        self.status: Dict[str, int] = {}
        self.latencies = array("d")
        self.queue_waits = array("d")
        #: Diurnal cycle 0 is warm-up for the ``sim_*`` statistics.
        self.warmup_end = arrivals.period
        self.next_index = 0
        #: Invocation ids of the arrivals whose spans a tracer keeps.
        self.sampled_ids: Optional[set] = None
        self.sample_period = 0

    def arrival(self, index: int):
        due = self.arrivals.due[index]
        action = self.workload.actions[self.arrivals.action[index]]
        caller = self.workload.tenants[self.arrivals.tenant[index]]

        def completed(invocation: Any) -> None:
            self.complete(index, due, invocation)

        def fire() -> None:
            invocation = self.cluster.invoke_async(
                action, caller=caller, on_complete=completed
            )
            if self.sampled_ids is not None and index % self.sample_period == 0:
                self.sampled_ids.add(invocation.invocation_id)

        return fire

    def complete(self, index: int, due: float, invocation: Any) -> None:
        if self.callbacks[index] < 255:
            self.callbacks[index] += 1
        self.callbacks_total += 1
        status = invocation.status.value
        self.status[status] = self.status.get(status, 0) + 1
        if status == "completed" and due >= self.warmup_end:
            self.latencies.append(invocation.completed_at - due)
            self.queue_waits.append(getattr(invocation, "queue_seconds", 0.0))

    def due_before(self, end: float) -> List[Tuple[float, Callable[[], None]]]:
        """The arrivals due before ``end`` not yet handed out, as events."""
        due = self.arrivals.due
        total = len(due)
        index = self.next_index
        events = []
        while index < total and due[index] < end:
            events.append((due[index], self.arrival(index)))
            index += 1
        self.next_index = index
        return events

    def schedule_until(self, end: float) -> None:
        """Put every arrival due before ``end`` on the program's event loop."""
        schedule_at = self.cluster.loop.schedule_at
        for due, fire in self.due_before(end):
            schedule_at(due, fire, ARRIVAL_LABEL)

    @property
    def done(self) -> bool:
        return (
            self.next_index >= len(self.arrivals)
            and self.callbacks_total >= len(self.arrivals)
        )


def replay(
    cluster: Any,
    workload: Workload,
    arrivals: Arrivals,
    probe: ReferenceProbe,
    tracer: Any = None,
) -> Dict[str, Any]:
    """Replay the arrivals in fixed virtual-time slices, probing between."""
    driver = Driver(cluster, workload, arrivals)
    if tracer is not None:
        tracer.attach(driver)
    slice_seconds = arrivals.duration / SLICES_PER_RUN
    max_slices = SLICES_PER_RUN * (1 + DRAIN_SLICE_FACTOR)
    probes = [probe.measure()]
    normalised = 0.0
    raw = 0.0
    segment = 0.0
    slices = 0
    gc.collect()
    while not driver.done and slices < max_slices:
        end = (slices + 1) * slice_seconds
        if tracer is not None:
            tracer.begin_slice()
        started = time.perf_counter()
        driver.schedule_until(end)
        cluster.run(until=end)
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.end_slice(wall)
        segment += wall
        raw += wall
        slices += 1
        if segment >= PROBE_INTERVAL_SECONDS or driver.done or slices >= max_slices:
            probes.append(probe.measure())
            scale = P_REF_SECONDS / ((probes[-2] + probes[-1]) / 2.0)
            if tracer is not None:
                tracer.scale_slice(scale)
            normalised += segment * scale
            segment = 0.0
    return {
        "driver": driver,
        "normalised_seconds": normalised,
        "raw_seconds": raw,
        "slices": slices,
        "probe_ms": statistics.median(probes) * 1000.0,
    }


def check_outputs(cluster: Any, driver: Driver) -> List[str]:
    """The output checks; each failure is one message."""
    failures: List[str] = []
    total = len(driver.arrivals)
    if driver.next_index != total:
        failures.append(f"issued {driver.next_index} of {total} arrivals")
    missing = sum(1 for count in driver.callbacks if count == 0)
    repeated = sum(1 for count in driver.callbacks if count > 1)
    if missing or repeated:
        failures.append(
            f"{missing} arrivals got no completion callback, {repeated} got several"
        )
    terminal = sum(
        driver.status.get(status, 0)
        for status in ("completed", "rejected", "throttled", "failed")
    )
    if terminal != total or driver.callbacks_total != total:
        failures.append(
            f"completed+rejected+throttled+failed = {terminal}, callbacks = "
            f"{driver.callbacks_total}, arrivals = {total} ({driver.status})"
        )
    index = getattr(getattr(cluster, "scheduler", None), "index", None)
    if index is not None:
        try:
            index.verify()
        except Exception as error:  # any verify failure fails the run
            failures.append(f"ClusterIndex.verify failed: {error!r}")
    return failures


def run(workload_name: str, seed: int, seconds: int, traced: bool) -> Dict[str, Any]:
    before_probe = status_mb("VmRSS")
    probe = ReferenceProbe()
    gc.collect()
    gc.freeze()
    probe_mb = status_mb("VmRSS") - before_probe
    repro = import_program()
    workload = Workload(workload_name, seconds)
    arrivals = generate(
        workload.shape,
        count=workload.count,
        duration=workload.duration,
        actions=len(workload.actions),
        tenants=len(workload.tenants),
        tenant_shares=workload.tenant_shares,
        seed=seed,
        stream=workload_name,
    )
    setup_s, setup_raw_s, cluster = measure_setup(workload, repro, probe)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(os.path.join(HERE, "out", f"{workload_name}-seed{seed}.spans.jsonl"))
        tracer.install(type(cluster.loop))
    outcome = replay(cluster, workload, arrivals, probe, tracer)
    driver: Driver = outcome["driver"]
    if tracer is not None:
        tracer.uninstall()
    failures = check_outputs(cluster, driver)
    total = len(arrivals)
    latencies = array("d", sorted(driver.latencies))
    completed = driver.status.get("completed", 0)
    result: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "arrivals": total,
        "status": dict(sorted(driver.status.items())),
        "failures": failures,
        "slices": outcome["slices"],
        "norm_inv_per_s": total / outcome["normalised_seconds"],
        "raw_inv_per_s": total / outcome["raw_seconds"],
        "replay_raw_s": outcome["raw_seconds"],
        "probe_ms": outcome["probe_ms"],
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": status_mb("VmHWM") - probe_mb,
        "sim_samples": len(latencies),
        "sim_served_frac": completed / total if total else 0.0,
    }
    if latencies:
        p99 = percentile(latencies, 99.0)
        result["sim_p50_ms"] = percentile(latencies, 50.0) * 1000.0
        result["sim_p99_ms"] = p99 * 1000.0
        result["sim_beyond_p99"] = sum(1 for value in latencies if value > p99)
    else:
        failures.append("no completed post-warm-up arrival to take latency from")
    if tracer is not None:
        waits = array("d", sorted(driver.queue_waits))
        wait_p99_ms = percentile(waits, 99.0) * 1000.0 if waits else 0.0
        result["layers"] = tracer.report(cluster, driver, total, wait_p99_ms)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.traced)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
