#!/usr/bin/env python3
"""Print the paper-figure results as exact reprs, one line per result.

Usage::

    python scripts/paper_numbers.py > numbers.txt

A change that must not move the simulated paper numbers is checked by
running this at the parent commit and at the change and comparing the two
outputs with ``diff``: any difference, down to the last float bit, shows.
It prints:

* ``measure_latency`` for the six Python functions the ``gh-tenants``
  benchmark workload deploys, under every applicable ``MAIN_CONFIGS``
  entry (Fig. 4's closed-loop setup);
* ``run_breakdown()`` (Fig. 8);
* ``run_fig3_dirty_sweep()`` and ``run_fig3_size_sweep()`` (Fig. 3);
* ``run_tracking_ablation()`` (§4.3).

Like ``run_detlint.py`` it puts ``src/`` on ``sys.path``, so it needs no
install.  It runs in about a second.
"""

import pathlib
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.experiments import (  # noqa: E402
    MAIN_CONFIGS,
    measure_latency,
    run_breakdown,
    run_fig3_dirty_sweep,
    run_fig3_size_sweep,
    run_tracking_ablation,
)
from repro.baselines.registry import mechanism_class  # noqa: E402
from repro.workloads import find_benchmark  # noqa: E402

#: The Python functions the ``gh-tenants`` benchmark workload deploys.
LATENCY_FUNCTIONS = ("md2html", "json", "get-time", "version", "deltablue", "float")


def main() -> None:
    for name in LATENCY_FUNCTIONS:
        spec = find_benchmark(name, "p")
        for config in MAIN_CONFIGS:
            if mechanism_class(config).supports(spec.profile):
                print(f"latency {name} {config}: {measure_latency(spec, config)!r}")
    for record in run_breakdown():
        print(f"breakdown: {record!r}")
    for label, sweep in zip(("low", "high"), run_fig3_dirty_sweep()):
        print(f"fig3 dirty {label}: {sweep!r}")
    for label, sweep in zip(("low", "high"), run_fig3_size_sweep()):
        print(f"fig3 size {label}: {sweep!r}")
    print(f"tracking ablation: {run_tracking_ablation()!r}")


if __name__ == "__main__":
    main()
