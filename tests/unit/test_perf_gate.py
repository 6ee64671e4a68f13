"""The perf regression gate against the committed baseline.

``scripts/check_perf_regression.py`` gates CI's quick perf-trace run
against ``BENCH_perf.json``.  These tests run the gate as CI does: the
committed baseline must pass against itself, and every candidate below,
the baseline with one rule broken, must fail and name its section.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GATE = REPO_ROOT / "scripts" / "check_perf_regression.py"
BASELINE = REPO_ROOT / "BENCH_perf.json"


def _gate(candidate: Path, baseline: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(GATE), str(candidate), str(baseline)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _halve(report: dict, section: str, variant: str) -> None:
    run = report[section]["variants"][variant]
    run["invocations_per_second"] /= 2


def _keep_only(report: dict, section: str, *variants: str) -> None:
    kept = report[section]["variants"]
    report[section]["variants"] = {label: kept[label] for label in variants}


#: (section the failure must name, how the candidate breaks the baseline).
BROKEN = {
    "false-flag": (
        "warmth_spectrum",
        lambda r: r["warmth_spectrum"].update(p99_reduced=False),
    ),
    "sampled-cost-20pct": (
        "tracing_overhead",
        lambda r: r["tracing_overhead"].update(sampled_cost_fraction=0.20),
    ),
    "halved-metrics": ("metrics", lambda r: _halve(r, "metrics", "run")),
    "halved-32x256": (
        "cluster_scale",
        lambda r: _halve(r, "cluster_scale", "32x256"),
    ),
    "halved-on-regime": (
        "warmth_spectrum",
        lambda r: _halve(r, "warmth_spectrum", "on"),
    ),
    "missing-section": ("metrics", lambda r: r.pop("metrics")),
    # A missing flag is not a holding one.
    "spectrum-on-only-no-flags": (
        "warmth_spectrum",
        lambda r: r.update(warmth_spectrum={
            "variants": {"on": r["warmth_spectrum"]["variants"]["on"]},
        }),
    ),
    "tracing-without-sampled": (
        "tracing_overhead",
        lambda r: r.update(tracing_overhead={
            "variants": {"off": r["tracing_overhead"]["variants"]["off"]},
        }),
    ),
    # Floors compare only shared variants, so one must be shared.
    "tracing-without-off": (
        "tracing_overhead",
        lambda r: _keep_only(r, "tracing_overhead", "sampled"),
    ),
    "cluster-point-not-in-baseline": (
        "cluster_scale",
        lambda r: r["cluster_scale"].update(variants={
            "8x32": r["cluster_scale"]["variants"]["16x128"],
        }),
    ),
}


def test_committed_baseline_passes_against_itself():
    outcome = _gate(BASELINE, BASELINE)
    assert outcome.returncode == 0, outcome.stderr
    assert "metrics/run" in outcome.stdout


@pytest.mark.parametrize("case", list(BROKEN))
def test_broken_candidate_fails_and_names_its_section(case, tmp_path):
    section, breakage = BROKEN[case]
    report = json.loads(BASELINE.read_text())
    breakage(report)
    candidate = tmp_path / f"{case}.json"
    candidate.write_text(json.dumps(report))
    outcome = _gate(candidate, BASELINE)
    assert outcome.returncode == 1, outcome.stdout + outcome.stderr
    assert f"FAIL: {section}" in outcome.stderr
