"""Every ``SimulationConfig`` field has a caller that sets it.

A knob earns its place through a benchmark, a paper figure or a test
that needs it.  A field counts as set when the program, the benchmark
harness, a script or an example passes it as a ``SimulationConfig(...)``
or ``dataclasses.replace(...)`` keyword (found by AST), or when a
perfbench workload's ``config`` names it.  A field that only its own
validation test sets is dead configuration: delete it, and let the
component that reads it keep its constructor default.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

from repro.config import SimulationConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Where a setter counts: everything but the tests.
SETTER_DIRS = ("src", "benchmarks", "scripts", "examples")

#: Fields only a behaviour test sets, each with the test that needs it.
TEST_ONLY_FIELDS = {
    "tenant_quota_burst": (
        "tests/unit/test_admission.py",
        "test_platform_metrics_track_throttled",
    ),
    "platform_overhead_seconds": (
        "tests/unit/test_cluster.py",
        "test_saturating_rejections_terminate_with_zero_overhead",
    ),
    "platform_jitter_seconds": (
        "tests/unit/test_cluster.py",
        "test_saturating_rejections_terminate_with_zero_overhead",
    ),
}


def _code_setters() -> set:
    """Keywords of every ``SimulationConfig(...)``/``replace(...)`` call."""
    keywords = set()
    for directory in SETTER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("SimulationConfig", "replace"):
                    keywords.update(kw.arg for kw in node.keywords if kw.arg)
    return keywords


def _workload_setters() -> set:
    """Fields the perfbench workloads configure."""
    workloads = json.loads((REPO_ROOT / "perfbench" / "workloads.json").read_text())
    return {
        name for workload in workloads["workloads"].values()
        for name in workload["config"]
    }


def test_every_config_field_has_a_setter():
    fields = {field.name for field in dataclasses.fields(SimulationConfig)}
    unset = fields - _code_setters() - _workload_setters() - set(TEST_ONLY_FIELDS)
    assert not unset, (
        f"SimulationConfig fields nothing sets outside the tests: {sorted(unset)}"
    )


def test_the_test_only_fields_are_still_test_only():
    fields = {field.name for field in dataclasses.fields(SimulationConfig)}
    setters = _code_setters() | _workload_setters()
    for field, (path, test) in TEST_ONLY_FIELDS.items():
        assert field in fields, f"{field} is no longer a SimulationConfig field"
        assert field not in setters, f"{field} has a setter now: drop it here"
        source = (REPO_ROOT / path).read_text()
        assert f"def {test}(" in source and f"{field}=" in source, (
            f"{path}::{test} no longer sets {field}"
        )
