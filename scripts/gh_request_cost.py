#!/usr/bin/env python3
"""Time the ``gh-tenants`` functions' requests in-process and count their Python calls.

Usage::

    python scripts/gh_request_cost.py [--mechanism gh|gh-nop|base|fork] [--quick]

One container per function of perfbench's ``gh-tenants`` workload (the
list is read from ``perfbench/workloads.json``) serves requests round robin
under the chosen mechanism, ``gh`` by default.  It prints:

* ``us_per_request``: the median over blocks of a block's wall time per
  request (``time.perf_counter``);
* ``calls_per_request``: Python calls per request over one block under
  ``cProfile`` (its ``total_calls``), which is exact and repeatable where
  wall time is not;
* for ``gh`` also ``churn_ratio``: the median over block pairs of a
  block's time against its no-churn twin's block.  The twin is the same
  six profiles with no scratch region mapped or unmapped and no heap
  growth.  The two sets run in interleaved blocks in one process, so the
  ratio holds when the host's speed drifts between runs.  The twin is a
  way to measure the churn round trip (the runtime's mapping edits and
  the restore's reversal of them), not a configuration.

A run is 40 blocks of 300 requests (about 4 s on a 2-vCPU VM); ``--quick``
runs 4 blocks of 30, under a second, to check that the script still
runs.  Like ``paper_numbers.py`` it puts ``src/`` on ``sys.path``, so it
needs no install.
"""

import argparse
import cProfile
import dataclasses
import json
import pathlib
import pstats
import random
import statistics
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro import create_mechanism, find_benchmark  # noqa: E402

MECHANISMS = ("gh", "gh-nop", "base", "fork")
#: The profile fields whose zero gives the no-churn twin.
NO_CHURN = {
    "regions_mapped_per_invocation": 0,
    "regions_unmapped_per_invocation": 0,
    "heap_growth_pages": 0,
}


def gh_tenants_profiles():
    """The profiles of the functions the ``gh-tenants`` workload deploys."""
    with open(_REPO_ROOT / "perfbench" / "workloads.json") as handle:
        functions = json.load(handle)["workloads"]["gh-tenants"]["functions"]
    return [find_benchmark(f["name"], f["language"]).profile for f in functions]


class Fleet:
    """One initialised container per profile, served round robin."""

    def __init__(self, mechanism, profiles):
        self.containers = []
        for profile in profiles:
            container = create_mechanism(mechanism, profile, rng=random.Random(7))
            container.initialize()
            self.containers.append(container)
        self.served = 0

    def serve(self, requests):
        containers = self.containers
        for _ in range(requests):
            containers[self.served % len(containers)].invoke(None, f"req-{self.served}")
            self.served += 1

    def us_per_request(self, requests):
        started = time.perf_counter()
        self.serve(requests)
        return (time.perf_counter() - started) / requests * 1e6

    def calls_per_request(self, requests):
        profiler = cProfile.Profile()
        profiler.runcall(self.serve, requests)
        return pstats.Stats(profiler).total_calls / requests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mechanism", choices=MECHANISMS, default="gh")
    parser.add_argument("--quick", action="store_true",
                        help="4 blocks of 30 requests, to check that the script runs")
    args = parser.parse_args(argv)
    blocks, size = (4, 30) if args.quick else (40, 300)

    profiles = gh_tenants_profiles()
    fleets = {"": Fleet(args.mechanism, profiles)}
    if args.mechanism == "gh":
        twins = [dataclasses.replace(profile, **NO_CHURN) for profile in profiles]
        fleets["no_churn_"] = Fleet(args.mechanism, twins)
    times = {prefix: [] for prefix in fleets}
    for fleet in fleets.values():
        fleet.serve(size)  # warm-up block
    for block in range(blocks):
        # Alternate which set goes first, so neither always follows the other.
        order = list(fleets.items())
        for prefix, fleet in order if block % 2 == 0 else reversed(order):
            times[prefix].append(fleet.us_per_request(size))

    print(f"mechanism {args.mechanism}: {len(profiles)} functions round robin, "
          f"{blocks} blocks of {size} requests")
    for prefix, fleet in fleets.items():
        print(f"{prefix}us_per_request {statistics.median(times[prefix]):.1f}")
        print(f"{prefix}calls_per_request {fleet.calls_per_request(size):.1f}")
    if len(fleets) > 1:
        ratios = [a / b for a, b in zip(times[""], times["no_churn_"])]
        print(f"churn_ratio {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
