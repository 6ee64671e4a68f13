"""The CLI refuses malformed input before it runs anything.

Each row is one malformed argv and the flag (or config field) its error
must name.  Every row must exit 2 with exactly one stderr line, starting
``error:``, print nothing on stdout and no traceback, and write no file,
in a fresh working directory.  Every experiment entry point the CLI can
reach is replaced by one that fails the test, so a refusal that comes
only after a capacity estimate, a replay or a spawned child shows.
"""

from __future__ import annotations

import pytest

import repro.cli
from repro.cli import main

#: (argv, what the one error line must name).
MALFORMED = (
    ([], "command"),
    (["list-benchmarks", "--suite", "spec"], "--suite"),
    (["demo-leak", "--language", "x"], "--language"),
    (["restore-stats", "--invocations", "0"], "--invocations"),
    (["restore-stats", "--invocations", "many"], "--invocations"),
    (["lifecycle", "--benchmark", "nope"], "benchmark"),
    (["cluster-scaling", "--bogus"], "--bogus"),
    (["cluster-scaling", "--actions", "0"], "--actions"),
    (["cluster-scaling", "--rounds", "0"], "--rounds"),
    (["cluster-scaling", "--in-flight", "-2"], "--in-flight"),
    (["cluster-scaling", "--cores", "0"], "cores"),
    (["cluster-scaling", "--invokers", "2", "0"], "invokers"),
    (["cluster-scaling", "--max-queue", "0"], "max_queue_per_action"),
    (["cluster-scaling", "--admission", "lifo"], "--admission"),
    (["cluster-scaling", "--policies", "random"], "--policies"),
    (["latency-under-load", "--cores", "0"], "cores"),
    (["latency-under-load", "--invokers", "0"], "invokers"),
    (["latency-under-load", "--actions", "0"], "--actions"),
    (["latency-under-load", "--load-factors", "1.0", "0"], "--load-factors"),
    (["latency-under-load", "--duration", "-1"], "--duration"),
    (["latency-under-load", "--warmup", "-1"], "--warmup"),
    (["latency-under-load", "--warmup", "5", "--duration", "1"], "--warmup"),
    (["latency-under-load", "--snapshot-budget", "4"], "snapshot_budget"),
    (["latency-under-load", "--forecast-period", "5"], "forecast_period_seconds"),
    (["latency-under-load", "--planner", "oracle"], "--planner"),
    (["latency-under-load", "--isolation-mechanism", "vm"], "--isolation-mechanism"),
    (["latency-under-load", "--arrivals", "azure-file"], "--trace-file"),
    (["latency-under-load", "--arrivals", "azure-file", "--trace-file",
      "missing.csv"], "--trace-file"),
    (["latency-under-load", "--trace-out", "t.json"], "--trace-out"),
    (["latency-under-load", "--tracing", "full", "--trace-out",
      "no-such-dir/t.json"], "--trace-out"),
    (["tenant-fairness", "--cores", "0"], "cores"),
    (["tenant-fairness", "--invokers", "-1"], "invokers"),
    (["tenant-fairness", "--actions", "-1"], "--actions"),
    (["tenant-fairness", "--quota-factor", "0"], "--quota-factor"),
    (["tenant-fairness", "--warmup", "-1"], "--warmup"),
    (["slo-control", "--parts", "audit"], "--parts"),
    (["slo-control", "--restorable-snapshots", "--snapshot-budget", "-1"],
     "snapshot_budget"),
    (["slo-control", "--forecast-cycles", "1"], "--forecast-cycles"),
    (["slo-control", "--warmup", "nan"], "--warmup"),
    (["slo-control", "--migrations", "-1"], "--migrations"),
    (["slo-control", "--tracing", "sampled", "--trace-out",
      "no-such-dir/t.json"], "--trace-out"),
    (["perf-trace", "--trace-file", "/nonexistent.csv"], "--trace-file"),
    (["perf-trace", "--invocations", "-5"], "--invocations"),
    (["perf-trace", "--invocations", "0"], "--invocations"),
    (["perf-trace", "--output", "/nonexistent/dir/x.json"], "--output"),
    (["perf-trace", "--output", "."], "--output"),
    (["perf-trace", "--trace-out", "no-such-dir/t.json"], "--trace-out"),
    (["perf-trace", "--shape", "bogus"], "--shape"),
    (["perf-trace", "--isolation-mechanism", "vm"], "--isolation-mechanism"),
    (["perf-trace", "--seed", "x"], "--seed"),
    (["trace", "--invocations", "0"], "--invocations"),
    (["trace", "--tracing", "off"], "--tracing"),
    (["trace", "--out", "no-such-dir/t.json"], "--out"),
    (["trace", "--trace-out", ""], "--trace-out"),
    (["lint", "--format", "yaml"], "--format"),
)

#: What the CLI module runs once its input is accepted.
_ENTRY_POINTS = (
    "estimate_cluster_capacity_rps",
    "measure_cluster_throughput",
    "measure_latency_under_load",
    "measure_restores",
    "run_lifecycle",
    "run_slo_control",
    "run_tenant_fairness",
    "run_section",
    "replay",
    "create_mechanism",
    "run_lint",
)


@pytest.fixture
def nothing_runs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name in _ENTRY_POINTS:
        def ran(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the input was refused")

        monkeypatch.setattr(repro.cli, name, ran)
    return tmp_path


@pytest.mark.parametrize(
    "argv, names", MALFORMED, ids=[" ".join(argv) or "(none)" for argv, _ in MALFORMED]
)
def test_malformed_argv_is_refused_before_anything_runs(argv, names, capsys, nothing_runs):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error:"), lines[0]
    assert names in lines[0], lines[0]
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(nothing_runs.iterdir()) == []


def test_the_table_covers_every_command():
    commands = {argv[0] for argv, _ in MALFORMED if argv}
    parser = repro.cli.build_parser()
    subparsers = next(
        action for action in parser._actions if action.dest == "command"
    )
    assert commands == set(subparsers.choices)


def test_config_refusals_carry_the_config_message(capsys, nothing_runs):
    assert main(["tenant-fairness", "--cores", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: cores must be >= 1"]
