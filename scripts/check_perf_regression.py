#!/usr/bin/env python3
"""Gate a fresh perf-trace run against the committed baseline.

Usage::

    python scripts/check_perf_regression.py CANDIDATE.json [BASELINE.json]

``BASELINE.json`` defaults to ``BENCH_perf.json`` at the repo root — the
tracked full-scale numbers ``python -m repro.cli perf-trace --shape all``
wrote.  The candidate is typically CI's quick run (``perf-trace --quick
--shape all``).  Both map section keys to reports whose ``variants`` hold
one summary per variant.  Each section's rules come from its row of the
section table, ``SECTIONS`` in ``repro.analysis.perf``:

* a section the baseline tracks must be in the candidate: a benchmark
  that silently stops running is the quietest regression of all;
* every flag the section declares must be present and true, and every
  value with a ceiling present and at most its ceiling: tracing that
  changes simulated behaviour, or a warmth spectrum that stops paying for
  itself, is a regression even when it stays fast;
* every gated variant both reports hold must keep its **throughput**
  (invocations simulated per wall-clock second) within
  ``REPRO_PERF_TOLERANCE`` (default 0.25, i.e. 25 %) of the baseline's,
  and the two must share at least one gated variant, so a candidate
  cannot pass by leaving out what has a floor.

The check exits 1 on any failure, naming the section on stderr, and 2 on
a usage error.  CI machines are noisy and heterogeneous; the generous
tolerance catches real structural regressions (an accidental per-sample
copy, a heap that stops compacting, a routing decision that visits every
invoker again) without flaking on scheduler jitter.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_perf.json"
DEFAULT_TOLERANCE = 0.25

# CI runs this script without PYTHONPATH: read the table of this checkout.
sys.path.insert(0, str(REPO_ROOT / "src"))
from repro.analysis.perf import SECTIONS  # noqa: E402


def load(path: Path) -> dict:
    with path.open() as handle:
        report = json.load(handle)
    if not any("variants" in report.get(key, {}) for key in SECTIONS):
        raise SystemExit(f"{path} is not a perf-trace report")
    return report


def check_section(
    key: str, candidate: dict, baseline: dict, tolerance: float
) -> list[str]:
    """The failures of one section of the candidate against the baseline."""
    if key not in candidate:
        return [
            f"{key}: the baseline tracks this section but the candidate run "
            f"has none — the benchmark did not run (re-run perf-trace with a "
            f"--shape that includes it, e.g. --shape all)"
        ]
    section = SECTIONS[key]
    report = candidate[key]
    failures = [
        f"{key}: flag {flag} does not hold ({report.get(flag, 'missing')})"
        for flag in section.flags
        if report.get(flag) is not True
    ]
    for name, ceiling in section.ceilings:
        value = report.get(name)
        if value is None or value > ceiling:
            shown = "missing" if value is None else f"{value:.1%}"
            failures.append(f"{key}: {name} is {shown} (ceiling {ceiling:.0%})")
    variants = report.get("variants", {})
    base_variants = baseline.get(key, {}).get("variants", {})
    shared = [
        label
        for label in section.floors
        if label in variants and label in base_variants
    ]
    if not shared:
        failures.append(
            f"{key}: the candidate shares no gated variant "
            f"({', '.join(section.floors)}) with the baseline"
        )
    for label in shared:
        got = variants[label]["invocations_per_second"]
        want = base_variants[label]["invocations_per_second"]
        floor = want * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(
            f"{key + '/' + label:>26}: {got:10,.0f} inv/s vs baseline "
            f"{want:10,.0f} (floor {floor:10,.0f}) {verdict}"
        )
        if got < floor:
            failures.append(
                f"{key}/{label}: throughput {got:,.0f} inv/s is more than "
                f"{tolerance:.0%} below the baseline {want:,.0f} inv/s"
            )
    return failures


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    candidate_path = Path(argv[0])
    baseline_path = Path(argv[1]) if len(argv) == 2 else DEFAULT_BASELINE
    tolerance = float(os.environ.get("REPRO_PERF_TOLERANCE", DEFAULT_TOLERANCE))

    candidate = load(candidate_path)
    baseline = load(baseline_path)

    failures: list[str] = []
    for key in SECTIONS:
        if key in candidate or key in baseline:
            failures += check_section(key, candidate, baseline, tolerance)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-trace sections within tolerance of the tracked baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
