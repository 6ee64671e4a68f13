#!/usr/bin/env python3
"""Gate a fresh perf-trace run against the committed baseline.

Usage::

    python scripts/check_perf_regression.py CANDIDATE.json [BASELINE.json]

``BASELINE.json`` defaults to ``BENCH_perf.json`` at the repo root — the
tracked full-scale numbers ``python -m repro.cli perf-trace`` wrote.  The
candidate is typically CI's quick run (``perf-trace --quick``).  The
top-level ``run`` section (``perf-trace --shape metrics``) is one replay
of the diurnal metrics trace; the gate compares its **throughput**
(invocations simulated per wall-clock second).  The metrics collector's
per-tick cost is bounded (time-bucket sketches), so throughput is
effectively scale-free and the comparison is direct.

Reports may also (or only) carry a ``cluster_scale`` section — the
warm-aware + work-stealing routing sweep ``perf-trace --shape
cluster-scale`` writes.  For every ``invokers x actions`` point present
in both candidate and baseline, the gate applies the same throughput
floor to the point's invocations-per-second.  Routing correctness is
not re-checked here: the tier-1 twin suites compare the cluster index
against the scan oracle in ``tests/property/reference_routing.py``.

A third section, ``warmth_spectrum`` (``perf-trace --shape
warmth-spectrum``), compares spectrum-on vs spectrum-off runs of the
same diurnal trace.  The gate applies the throughput floor to each
regime's invocations-per-second and requires the headline identity
flags the benchmark asserts: both regimes achieve **equal goodput**, a
**majority** of rising-edge cold boots convert to restores, restores
**outnumber** the remaining cold boots on the rising edge, and p99 is
**reduced** — a spectrum that stops paying for itself is a regression
even when it stays fast.

A fourth section, ``tracing_overhead`` (``perf-trace --shape
tracing-overhead``), compares the flight recorder off vs sampled on the
same trace.  The gate applies the throughput floor to the **off** mode
(the recorder's off path must stay within noise of the tracked
baseline — "allocation-free" made operational), requires tracing to
have changed nothing simulated (equal goodput, cold starts and p99
between the candidate's own off and sampled runs), and bounds the
candidate-internal ``sampled_cost_fraction`` at 10 %.

Every section present in the baseline must also be present in the
candidate: a benchmark that silently stops running is the quietest
regression of all, so a missing section fails with a message naming it.

The check fails (exit 1) when any shared throughput drops more than
``REPRO_PERF_TOLERANCE`` (default 0.25, i.e. 25 %) below baseline, or
when a section's identity flags no longer hold.  CI machines are noisy
and heterogeneous; the generous tolerance catches real structural
regressions (an accidental per-sample copy, a heap that stops
compacting, a routing decision that visits every invoker again) without
flaking on scheduler jitter.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_perf.json"
DEFAULT_TOLERANCE = 0.25


def load(path: Path) -> dict:
    with path.open() as handle:
        report = json.load(handle)
    has_metrics = report.get("benchmark") == "perf-trace" and "run" in report
    has_cluster = "points" in report.get("cluster_scale", {})
    has_warmth = "regimes" in report.get("warmth_spectrum", {})
    has_tracing = "modes" in report.get("tracing_overhead", {})
    if not has_metrics and not has_cluster and not has_warmth and not has_tracing:
        raise SystemExit(f"{path} is not a perf-trace report")
    return report


#: Section name -> predicate telling whether a report carries it.  Used to
#: fail loudly when the baseline tracks a section the candidate never ran —
#: a benchmark that silently disappears from CI must not pass the gate.
_SECTIONS = {
    "metrics (run)": lambda report: "run" in report,
    "cluster_scale": lambda report: "points" in report.get("cluster_scale", {}),
    "warmth_spectrum": lambda report: "regimes" in report.get("warmth_spectrum", {}),
    "tracing_overhead": lambda report: "modes" in report.get("tracing_overhead", {}),
}


def check_sections_present(
    candidate: dict, baseline: dict, failures: list[str]
) -> None:
    """Every section the baseline tracks must exist in the candidate."""
    for name, present in _SECTIONS.items():
        if present(baseline) and not present(candidate):
            failures.append(
                f"baseline tracks the {name} section but the candidate run "
                f"has none — the benchmark did not run (re-run perf-trace "
                f"with a --shape that includes it, e.g. --shape all)"
            )


def check_metrics(
    candidate: dict, baseline: dict, tolerance: float, failures: list[str]
) -> None:
    """Gate the metrics replay's throughput (when both reports have it)."""
    if "run" not in candidate or "run" not in baseline:
        return
    got = candidate["run"]["invocations_per_second"]
    want = baseline["run"]["invocations_per_second"]
    floor = want * (1.0 - tolerance)
    verdict = "ok" if got >= floor else "REGRESSED"
    print(
        f"{'metrics':>7}: {got:10,.0f} inv/s vs baseline {want:10,.0f} "
        f"(floor {floor:10,.0f}) {verdict}"
    )
    if got < floor:
        failures.append(
            f"metrics throughput {got:,.0f} inv/s is more than "
            f"{tolerance:.0%} below the baseline {want:,.0f} inv/s"
        )


def check_cluster_scale(
    candidate: dict, baseline: dict, tolerance: float, failures: list[str]
) -> None:
    """Gate the cluster-scale section's per-point throughput floor."""
    cand_points = candidate.get("cluster_scale", {}).get("points", {})
    base_points = baseline.get("cluster_scale", {}).get("points", {})
    for key in sorted(set(cand_points) & set(base_points)):
        got = cand_points[key]["invocations_per_second"]
        want = base_points[key]["invocations_per_second"]
        floor = want * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(
            f"{key:>7}: {got:10,.0f} inv/s vs baseline {want:10,.0f} "
            f"(floor {floor:10,.0f}) {verdict}  [cluster-scale routing]"
        )
        if got < floor:
            failures.append(
                f"cluster-scale {key} throughput {got:,.0f} inv/s is more "
                f"than {tolerance:.0%} below the baseline {want:,.0f} inv/s"
            )


#: Identity/quality flags the warmth-spectrum benchmark computes when both
#: regimes ran.  Each must be true in the candidate: the spectrum's whole
#: claim is faster tails at the *same* goodput via restores, and a run where
#: any leg of that claim fails has regressed regardless of throughput.
_WARMTH_IDENTITY_FLAGS = (
    "equal_goodput",
    "majority_converted",
    "restores_outnumber_boots",
    "p99_reduced",
)


def check_warmth_spectrum(
    candidate: dict, baseline: dict, tolerance: float, failures: list[str]
) -> None:
    """Gate the spectrum-on-vs-off section (when the candidate has it)."""
    cand_section = candidate.get("warmth_spectrum", {})
    cand_regimes = cand_section.get("regimes", {})
    base_regimes = baseline.get("warmth_spectrum", {}).get("regimes", {})
    if not cand_regimes:
        return
    for flag in _WARMTH_IDENTITY_FLAGS:
        if cand_section.get(flag) is False:
            failures.append(
                f"warmth-spectrum: headline property {flag} no longer holds"
            )
    for regime in sorted(cand_regimes):
        got = cand_regimes[regime]["invocations_per_second"]
        base_regime = base_regimes.get(regime)
        if base_regime is None:
            continue
        want = base_regime["invocations_per_second"]
        floor = want * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(
            f"{regime:>7}: {got:10,.0f} inv/s vs baseline {want:10,.0f} "
            f"(floor {floor:10,.0f}) {verdict}  [warmth spectrum]"
        )
        if got < floor:
            failures.append(
                f"warmth-spectrum regime {regime!r} throughput {got:,.0f} "
                f"inv/s is more than {tolerance:.0%} below the baseline "
                f"{want:,.0f} inv/s"
            )


#: Candidate-internal flags the tracing-overhead benchmark asserts: with
#: the recorder off or sampled, the *simulated* run must be bit-identical.
_TRACING_IDENTITY_FLAGS = ("equal_goodput", "equal_cold_starts", "equal_p99")

#: Ceiling on the throughput the sampled recorder may cost relative to the
#: off mode within the same candidate run pair.
TRACING_SAMPLED_COST_CEILING = 0.10


def check_tracing_overhead(
    candidate: dict, baseline: dict, tolerance: float, failures: list[str]
) -> None:
    """Gate the recorder-off-vs-sampled section (when the candidate has it)."""
    cand_section = candidate.get("tracing_overhead", {})
    cand_modes = cand_section.get("modes", {})
    base_modes = baseline.get("tracing_overhead", {}).get("modes", {})
    if not cand_modes:
        return
    for flag in _TRACING_IDENTITY_FLAGS:
        if cand_section.get(flag) is False:
            failures.append(
                f"tracing-overhead: tracing changed simulated behaviour "
                f"({flag} is false)"
            )
    cost = cand_section.get("sampled_cost_fraction")
    if cost is not None and cost > TRACING_SAMPLED_COST_CEILING:
        failures.append(
            f"tracing-overhead: sampled tracing costs {cost:.1%} throughput "
            f"vs off (ceiling {TRACING_SAMPLED_COST_CEILING:.0%})"
        )
    # Only the off mode is gated against the committed baseline: the off
    # path must stay within noise of a recorder-free build, which is the
    # operational meaning of "allocation-free instrumentation".
    got_off = cand_modes.get("off", {}).get("invocations_per_second")
    want_off = base_modes.get("off", {}).get("invocations_per_second")
    if got_off is None or want_off is None:
        return
    floor = want_off * (1.0 - tolerance)
    verdict = "ok" if got_off >= floor else "REGRESSED"
    print(
        f"{'off':>7}: {got_off:10,.0f} inv/s vs baseline {want_off:10,.0f} "
        f"(floor {floor:10,.0f}) {verdict}  [tracing off path]"
    )
    if got_off < floor:
        failures.append(
            f"tracing-overhead off-path throughput {got_off:,.0f} inv/s is "
            f"more than {tolerance:.0%} below the baseline {want_off:,.0f} "
            f"inv/s — the disabled recorder is no longer free"
        )


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
    check_sections_present(candidate, baseline, failures)
    check_metrics(candidate, baseline, tolerance, failures)
    check_cluster_scale(candidate, baseline, tolerance, failures)
    check_warmth_spectrum(candidate, baseline, tolerance, failures)
    check_tracing_overhead(candidate, baseline, tolerance, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-trace throughput within tolerance of the tracked baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
