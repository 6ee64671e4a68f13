"""The perf regression gate against the committed baseline.

``scripts/check_perf_regression.py`` gates CI's quick perf-trace run
against ``BENCH_perf.json``.  These tests run the gate as CI does: the
committed baseline must pass against itself, and a report missing a
section the baseline tracks must fail and say which.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

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


def test_committed_baseline_passes_against_itself():
    outcome = _gate(BASELINE, BASELINE)
    assert outcome.returncode == 0, outcome.stderr
    assert "metrics" in outcome.stdout


def test_missing_metrics_section_fails_and_names_it(tmp_path):
    report = json.loads(BASELINE.read_text())
    del report["run"]
    candidate = tmp_path / "no-metrics.json"
    candidate.write_text(json.dumps(report))
    outcome = _gate(candidate, BASELINE)
    assert outcome.returncode == 1
    assert "metrics (run) section" in outcome.stderr
