"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list_benchmarks_all(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "58 benchmarks" in out
        assert "pyaes (p)" in out

    def test_list_benchmarks_by_suite(self, capsys):
        assert main(["list-benchmarks", "--suite", "polybench"]) == 0
        out = capsys.readouterr().out
        assert "23 benchmarks" in out
        assert "pyaes (p)" not in out

    def test_demo_leak_shows_both_configurations(self, capsys):
        assert main(["demo-leak", "--benchmark", "get-time", "--language", "p"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "gh" in out
        assert "YES" in out and "no" in out

    def test_restore_stats_reports_paper_value(self, capsys):
        assert main(["restore-stats", "--benchmark", "bicg", "--invocations", "2"]) == 0
        out = capsys.readouterr().out
        assert "mean restoration" in out
        assert "paper-reported restoration" in out

    def test_lifecycle_command(self, capsys):
        assert main(["lifecycle", "--benchmark", "get-time", "--language", "p"]) == 0
        out = capsys.readouterr().out
        assert "environment_instantiation_seconds" in out

    def test_cluster_scaling_reports_skew(self, capsys):
        assert main([
            "cluster-scaling", "--benchmark", "get-time", "--language", "p",
            "--invokers", "1", "--policies", "hash-affinity", "--rounds", "1",
            "--actions", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "skew (max/mean)" in out
        assert "steals" in out
        assert "hash-affinity" in out

    def test_latency_under_load_sweeps_strategies(self, capsys):
        assert main([
            "latency-under-load", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "Latency under open-loop load" in out
        assert "least-loaded" in out
        assert "warm-aware+steal" in out
        assert "goodput" in out

    def test_latency_under_load_azure_arrivals(self, capsys):
        assert main([
            "latency-under-load", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "1.0",
            "--arrivals", "azure",
        ]) == 0
        out = capsys.readouterr().out
        assert "azure arrivals" in out

    def test_latency_under_load_azure_diurnal_arrivals(self, capsys):
        assert main([
            "latency-under-load", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "2.0",
            "--arrivals", "azure-diurnal",
        ]) == 0
        out = capsys.readouterr().out
        assert "azure-diurnal arrivals" in out

    def test_latency_under_load_azure_file_arrivals(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2,3,4\n"
            "o,a,f-hot,http,20,10,15,5\n"
            "o,a,f-cool,timer,2,1,0,1\n"
        )
        assert main([
            "latency-under-load", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "2.0",
            "--arrivals", "azure-file", "--trace-file", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "azure-file arrivals" in out

    def test_azure_file_arrivals_require_a_trace_file(self, capsys):
        assert main([
            "latency-under-load", "--benchmark", "get-time",
            "--language", "p", "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "1.0",
            "--arrivals", "azure-file",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --arrivals azure-file requires --trace-file"
        ]
        assert captured.out == ""

    def test_slo_control_quota_part(self, capsys):
        assert main([
            "slo-control", "--parts", "quota",
            "--duration", "5.0", "--warmup", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO quota control" in out
        assert "controlled" in out and "static" in out and "solo" in out
        assert "control loop:" in out

    def test_tenant_fairness_reports_all_scenarios(self, capsys):
        assert main([
            "tenant-fairness", "--invokers", "1", "--cores", "2",
            "--actions", "2", "--duration", "3.0", "--warmup", "1.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Tenant fairness" in out
        for token in ("solo", "fifo", "wfq+quota", "throttled", "aggressive", "polite"):
            assert token in out

    def test_cluster_scaling_accepts_admission_and_autoscale(self, capsys):
        assert main([
            "cluster-scaling", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--policies", "least-loaded", "--rounds", "1",
            "--actions", "2", "--admission", "wfq", "--autoscale",
        ]) == 0
        assert "least-loaded" in capsys.readouterr().out

    def test_latency_under_load_restorable_snapshots(self, capsys):
        assert main([
            "latency-under-load", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "1.0",
            "--restorable-snapshots", "--snapshot-budget", "4",
            "--isolation-mechanism", "gh",
        ]) == 0
        out = capsys.readouterr().out
        assert "Latency under open-loop load" in out

    def test_spectrum_knobs_parse_with_defaults(self):
        parser = build_parser()
        for command in ("latency-under-load", "slo-control"):
            args = parser.parse_args([command])
            assert args.restorable_snapshots is False
            assert args.snapshot_budget is None
            assert args.isolation_mechanism == "gh"
            args = parser.parse_args([
                command, "--restorable-snapshots",
                "--snapshot-budget", "8", "--isolation-mechanism", "criu",
            ])
            assert args.restorable_snapshots is True
            assert args.snapshot_budget == 8
            assert args.isolation_mechanism == "criu"
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--isolation-mechanism", "bogus"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_ambiguous_benchmark_needs_language(self, capsys):
        assert main(["demo-leak", "--benchmark", "get-time"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: benchmark name 'get-time' is ambiguous "
            "(get-time (p), get-time (n)); pass a language"
        ]
        assert captured.out == ""

    def test_unknown_benchmark_is_a_clean_error(self, capsys):
        assert main(["cluster-scaling", "--benchmark", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: no benchmark named 'nope'"]
        assert captured.out == ""

    def test_invalid_core_count_is_a_clean_error(self, capsys):
        assert main(["latency-under-load", "--cores", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: cores must be >= 1"]
        assert captured.out == ""

    def test_snapshot_budget_without_snapshots_is_a_clean_error(self, capsys):
        assert main(["latency-under-load", "--snapshot-budget", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: snapshot_budget requires restorable_snapshots"
        ]
        assert captured.out == ""


class TestPerfTraceCli:
    def test_shape_choices_and_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["perf-trace"])
        assert args.shape == "metrics"
        assert args.trace_file is None
        # Each section runs at its own size unless one is given.
        assert args.invocations is None
        args = parser.parse_args(["perf-trace", "--shape", "cluster-scale"])
        assert args.shape == "cluster-scale"
        args = parser.parse_args(["perf-trace", "--shape", "warmth-spectrum"])
        assert args.shape == "warmth-spectrum"
        assert args.isolation_mechanism == "gh"
        with pytest.raises(SystemExit):
            parser.parse_args(["perf-trace", "--shape", "bogus"])
        with pytest.raises(SystemExit):
            parser.parse_args(["perf-trace", "--isolation-mechanism", "bogus"])
        # The per-section sizes and the concurrent runs are gone.
        for retired in ("--cluster-invocations", "--warmth-invocations",
                        "--tracing-invocations", "--processes"):
            with pytest.raises(SystemExit):
                parser.parse_args(["perf-trace", retired, "2"])

    def test_merge_preserves_sections_not_regenerated(self, tmp_path):
        import json

        from repro.cli import _merge_perf_sections

        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "metrics": {"variants": {"run": {"invocations_per_second": 1.0}}},
            "cluster_scale": {"variants": {}},
            "warmth_spectrum": {"variants": {}},
        }))
        # Regenerating only the metrics shape keeps the other sections.
        merged = _merge_perf_sections(str(path), {
            "metrics": {"variants": {"run": {}}},
        })
        assert merged["metrics"] == {"variants": {"run": {}}}
        assert merged["cluster_scale"] == {"variants": {}}
        assert merged["warmth_spectrum"] == {"variants": {}}
        # Regenerating only the cluster shape keeps the metrics section.
        merged = _merge_perf_sections(str(path), {
            "cluster_scale": {"variants": {"a": 1}},
        })
        assert merged["metrics"]["variants"]["run"] == {"invocations_per_second": 1.0}
        assert merged["cluster_scale"]["variants"] == {"a": 1}
        assert merged["warmth_spectrum"] == {"variants": {}}
        # All regenerated: nothing survives from the file.
        merged = _merge_perf_sections(str(path), {
            "metrics": {"variants": {"run": {"arrivals": 1}}},
            "cluster_scale": {"variants": {}},
            "warmth_spectrum": {"variants": {"on": {}}},
        })
        assert merged["metrics"]["variants"]["run"] == {"arrivals": 1}
        assert merged["cluster_scale"]["variants"] == {}
        assert merged["warmth_spectrum"]["variants"] == {"on": {}}

    def test_merge_tolerates_missing_or_corrupt_baseline(self, tmp_path):
        from repro.cli import _merge_perf_sections

        missing = tmp_path / "nope.json"
        merged = _merge_perf_sections(str(missing), {
            "cluster_scale": {"variants": {}},
        })
        assert set(merged) == {"cluster_scale"}
        corrupt = tmp_path / "bad.json"
        corrupt.write_text("{not json")
        merged = _merge_perf_sections(str(corrupt), {
            "metrics": {"variants": {}},
        })
        assert merged == {"metrics": {"variants": {}}}

    def test_merge_preserves_tracing_overhead_section(self, tmp_path):
        import json

        from repro.cli import _merge_perf_sections

        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "metrics": {"variants": {"run": {"invocations_per_second": 1.0}}},
            "tracing_overhead": {"variants": {"off": {}}},
        }))
        # Regenerating only the metrics shape keeps tracing_overhead.
        merged = _merge_perf_sections(str(path), {
            "metrics": {"variants": {"run": {}}},
        })
        assert merged["tracing_overhead"] == {"variants": {"off": {}}}
        # Regenerating only tracing-overhead keeps the metrics section.
        merged = _merge_perf_sections(str(path), {
            "tracing_overhead": {"variants": {"sampled": {}}},
        })
        assert merged["metrics"]["variants"]["run"] == {"invocations_per_second": 1.0}
        assert merged["tracing_overhead"]["variants"] == {"sampled": {}}

    def test_tracing_overhead_shape_parses(self):
        parser = build_parser()
        args = parser.parse_args(["perf-trace", "--shape", "tracing-overhead"])
        assert args.shape == "tracing-overhead"
        assert args.invocations is None
        assert args.trace_out is None
        args = parser.parse_args([
            "perf-trace", "--shape", "all", "--trace-out", "t.json",
        ])
        assert args.trace_out == "t.json"


class TestTraceCli:
    def test_trace_command_prints_decomposition(self, capsys):
        assert main(["trace", "--invocations", "2000"]) == 0
        out = capsys.readouterr().out
        assert "warmth spectrum on" in out
        assert "invocation traces kept" in out
        # The decomposition table groups by tenant/dispatch-class with
        # one phase-share column per lifecycle phase.
        for token in ("*/*", "inbound", "queue", "boot", "restore",
                      "execute", "outbound"):
            assert token in out

    def test_trace_command_writes_chrome_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main([
            "trace", "--invocations", "2000", "--out", str(out_path),
        ]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]
        assert document["otherData"]["recorder_mode"] == "sampled"

    def test_trace_command_unwritable_output_errors(self, capsys, tmp_path):
        missing_dir = tmp_path / "does-not-exist" / "trace.json"
        assert main([
            "trace", "--invocations", "500", "--out", str(missing_dir),
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot write trace output" in err

    def test_latency_under_load_trace_out(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "load_trace.json"
        assert main([
            "latency-under-load", "--benchmark", "get-time", "--language", "p",
            "--invokers", "2", "--actions", "2",
            "--load-factors", "0.4", "--duration", "1.0",
            "--tracing", "full", "--trace-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace of the last point" in out
        document = json.loads(out_path.read_text())
        assert document["otherData"]["recorder_mode"] == "full"

    def test_trace_out_requires_tracing(self, capsys):
        assert main([
            "latency-under-load", "--trace-out", "x.json",
        ]) == 2
        assert "--trace-out requires --tracing" in capsys.readouterr().err
        assert main([
            "slo-control", "--trace-out", "x.json",
        ]) == 2
        assert "--trace-out requires --tracing" in capsys.readouterr().err

    def test_slo_control_trace_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["slo-control"])
        assert args.tracing == "off"
        assert args.trace_out is None
        args = parser.parse_args([
            "slo-control", "--tracing", "sampled", "--trace-out", "t.json",
        ])
        assert args.tracing == "sampled"
        assert args.trace_out == "t.json"
        with pytest.raises(SystemExit):
            parser.parse_args(["slo-control", "--tracing", "bogus"])
