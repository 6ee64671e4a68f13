"""Integration tests for the perf-trace stack (bounded metrics + fan-out).

End-to-end claims from the bounded-metrics and indexed-routing work are
pinned here:

* **Control-plane parity** — the time-bucket metrics collector must not
  change what the simulation *does*.  Metrics are observe-only unless a
  tenant SLO is declared, so the forecast comparison (reactive vs
  predictive pre-warming) must reach the same verdict with bit-identical
  cold-start counts whether the cluster keeps its metrics in the
  collector or in the per-sample oracle of ``reference_metrics``.
* **Fan-out determinism** — ``run_replicated`` returns bit-identical
  results whether the per-seed runs execute serially in-process or
  fanned out across spawn-started worker processes, and the per-seed
  sketches pool losslessly.
* **Published-trace replay** — ``perf-trace --trace-file`` drives the
  same measurement path from a real Azure Functions CSV instead of the
  synthetic diurnal generator, deterministically.
* **Cluster-scale routing parity** — the ``--shape cluster-scale``
  harness runs bit-identical simulations under the shipped,
  index-driven scheduler and the scan oracle in ``reference_routing``
  (the acceptance contract of the cluster index).
* **The comparison sections' verdicts** — the ``warmth_spectrum`` and
  ``tracing_overhead`` rows of the section table replay both their
  variants in-process, and every flag the gate requires holds; these
  tests read nothing of the wall clock.
* **The section runner** — ``perf-trace`` runs a section end to end:
  one spawn child per run, the traced run's Chrome export, the verdict
  and the merge into the baseline file.

All use reduced scales; the full-size numbers live in the
``benchmarks/`` perf-trace benchmark and in ``BENCH_perf.json``.
"""

from __future__ import annotations

import json

import pytest
from reference_metrics import ReferenceMetrics
from reference_routing import ReferenceScheduler

import repro.faas.cluster
from repro.analysis.experiments import run_slo_control
from repro.analysis.perf import SECTIONS, replay, run_replicated
from repro.cli import main
from repro.workloads import find_benchmark


def _metrics_replay(**kwargs):
    """One replay of the metrics section's trace."""
    return replay("metrics", "run", **kwargs)


def _small_trace_worker(seed: int):
    """Module-level (picklable) reduced perf-trace run for fan-out tests."""
    return _metrics_replay(invocations=2_500, seed=seed)


def _drop_timing(result):
    """Strip wall-clock fields (the only legitimately nondeterministic ones)."""
    cleaned = dict(result)
    cleaned.pop("wall_seconds", None)
    cleaned.pop("invocations_per_second", None)
    return cleaned


class TestForecastVerdictParity:
    def test_sketch_mode_reproduces_the_predictive_prewarm_verdict(self, monkeypatch):
        # The forecast experiment, once on the collector and once with the
        # per-sample oracle in its place; same seed and trace.
        spec = find_benchmark("md2html", "p")

        def forecast():
            return run_slo_control(
                spec, parts=("forecast",), forecast_duration_seconds=9.0
            ).forecast

        runs = {"sketch": forecast()}
        monkeypatch.setattr(
            repro.faas.cluster, "MetricsCollector", lambda **_: ReferenceMetrics()
        )
        runs["exact"] = forecast()
        for outcome in runs.values():
            assert set(outcome) == {"reactive", "predictive"}

        # The verdict: predictive wins the rising edges under both.
        for kind, outcome in runs.items():
            assert (
                outcome["predictive"].rising_cold_starts
                < outcome["reactive"].rising_cold_starts
            ), kind

        # Metrics are observe-only here (no tenant SLOs declared), so the
        # two runs are bit-identical simulations: every behavioural
        # counter matches exactly, not approximately.
        for regime in ("reactive", "predictive"):
            exact = runs["exact"][regime]
            sketch = runs["sketch"][regime]
            assert sketch.cold_starts == exact.cold_starts, regime
            assert sketch.rising_cold_starts == exact.rising_cold_starts
            assert sketch.cold_dispatches == exact.cold_dispatches
            assert sketch.rising_cold_dispatches == exact.rising_cold_dispatches
            assert sketch.prewarms == exact.prewarms
            assert sketch.drains == exact.drains
            assert sketch.budget == exact.budget
            assert sketch.achieved_rps == exact.achieved_rps
            assert sketch.goodput_fraction == exact.goodput_fraction
            # The reported p99 comes from the client's own exact samples,
            # so it is inside the sketch error bound trivially: bit-equal.
            assert sketch.p99_ms == exact.p99_ms


class TestReplicatedFanOut:
    SEEDS = (101, 202, 303)

    def test_parallel_fan_out_is_bit_identical_to_serial(self):
        serial = run_replicated(_small_trace_worker, seeds=self.SEEDS)
        fanned = run_replicated(
            _small_trace_worker, seeds=self.SEEDS, processes=2
        )
        assert len(serial) == len(fanned) == len(self.SEEDS)
        for mine, theirs in zip(serial, fanned):
            # Everything except wall-clock timing — including the e2e
            # sketch (integer bucket counts, exact __eq__) — matches
            # bit-for-bit across the process boundary.
            assert _drop_timing(mine) == _drop_timing(theirs)

    def test_seeds_actually_differentiate_runs(self):
        a, b = run_replicated(_small_trace_worker, seeds=(101, 202))
        assert a["seed"] != b["seed"]
        assert a["e2e_sketch"] != b["e2e_sketch"]

    def test_empty_seed_list_raises(self):
        with pytest.raises(ValueError):
            run_replicated(_small_trace_worker, seeds=())


def _write_azure_csv(path, rows):
    """A minimal invocations-per-function CSV in the published layout."""
    minutes = len(rows[0][1])
    header = ["HashOwner", "HashApp", "HashFunction", "Trigger"] + [
        str(minute + 1) for minute in range(minutes)
    ]
    lines = [",".join(header)]
    for name, counts in rows:
        lines.append(
            ",".join(["owner", "app", name, "http"] + [str(c) for c in counts])
        )
    path.write_text("\n".join(lines) + "\n")


class TestAzureTraceReplay:
    def test_trace_file_drives_the_perf_trace_harness(self, tmp_path):
        csv_path = tmp_path / "invocations_per_function.csv"
        # Ten "minutes" with a mid-trace hump, heaviest function first.
        _write_azure_csv(csv_path, [
            ("fn-heavy", [5, 8, 20, 40, 60, 60, 40, 20, 8, 5]),
            ("fn-light", [1, 1, 2, 4, 6, 6, 4, 2, 1, 1]),
        ])
        result = _metrics_replay(invocations=2_000, seed=7, trace_file=str(csv_path))
        assert result["trace_file"] == str(csv_path)
        assert result["arrivals"] > 0
        assert result["completed"] > 0
        assert 0.0 < result["goodput_fraction"] <= 1.0

    def test_trace_file_replay_is_deterministic(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        _write_azure_csv(csv_path, [
            ("fn-a", [10, 30, 50, 30, 10]),
            ("fn-b", [2, 6, 10, 6, 2]),
        ])
        first = _metrics_replay(invocations=1_500, seed=11, trace_file=str(csv_path))
        second = _metrics_replay(invocations=1_500, seed=11, trace_file=str(csv_path))
        assert _drop_timing(first) == _drop_timing(second)

    def test_trace_file_changes_the_arrival_pattern(self, tmp_path):
        # Same seed, synthetic vs file-driven: different traces, same
        # measurement path.
        csv_path = tmp_path / "trace.csv"
        _write_azure_csv(csv_path, [("fn-a", [0, 0, 100, 0, 0])])
        synthetic = _metrics_replay(invocations=1_500, seed=11)
        replayed = _metrics_replay(invocations=1_500, seed=11, trace_file=str(csv_path))
        assert synthetic["trace_file"] is None
        assert replayed["trace_file"] == str(csv_path)
        assert replayed["e2e_sketch"] != synthetic["e2e_sketch"]


class TestClusterScaleParity:
    def test_indexed_and_scan_runs_are_bit_identical(self, monkeypatch):
        # The acceptance contract at integration scale: the full harness
        # (diurnal trace, warm-aware routing, work stealing) behaves
        # identically under the shipped scheduler and the scan oracle.
        # An 8 x 32 point: the 16 x 128 row's shape at a size the scan
        # oracle replays in seconds.
        kwargs = dict(invokers=8, actions=32, invocations=2_500, seed=13)
        indexed = replay("cluster_scale", "16x128", **kwargs)
        monkeypatch.setattr(repro.faas.cluster, "Scheduler", ReferenceScheduler)
        scan = replay("cluster_scale", "16x128", **kwargs)
        assert indexed["arrivals"] == scan["arrivals"] > 0
        assert indexed["goodput_fraction"] == scan["goodput_fraction"]
        assert indexed["cold_starts"] == scan["cold_starts"]
        assert indexed["steals"] == scan["steals"] > 0
        assert indexed["routed_per_invoker"] == scan["routed_per_invoker"]
        assert indexed["p99_ms"] == scan["p99_ms"]


def _verdict(key: str, invocations: int):
    """Both variants of a comparison section replayed here, and its verdict."""
    section = SECTIONS[key]
    variants = {
        label: replay(key, label, invocations=invocations)
        for label in section.labels
    }
    return variants, section.verdict(variants)


class TestComparisonSections:
    def test_warmth_spectrum_flags_hold_at_the_quick_size(self):
        # Do not shrink the quick size for speed: at 10,000 arrivals the
        # restores only tie the rising-edge boots left, and at 12,000 most
        # of those boots stay boots.
        section = SECTIONS["warmth_spectrum"]
        variants, verdict = _verdict("warmth_spectrum", section.quick_invocations)
        assert {flag: verdict[flag] for flag in section.flags} == {
            flag: True for flag in section.flags
        }
        assert variants["on"]["rising_restores"] > 0
        assert variants["off"]["rising_restores"] == 0

    def test_tracing_changes_nothing_simulated(self):
        section = SECTIONS["tracing_overhead"]
        variants, verdict = _verdict("tracing_overhead", 3_000)
        assert {flag: verdict[flag] for flag in section.flags} == {
            flag: True for flag in section.flags
        }
        assert variants["sampled"]["traces_recorded"] > 0
        assert "traces_recorded" not in variants["off"]


class TestSectionRunner:
    def test_perf_trace_runs_a_section_in_children_and_merges_it(
        self, tmp_path, capsys
    ):
        output = tmp_path / "perf.json"
        output.write_text(json.dumps({"metrics": {"variants": {"run": {}}}}))
        trace = tmp_path / "trace.json"
        assert main([
            "perf-trace", "--shape", "tracing-overhead", "--invocations",
            "1500", "--output", str(output), "--trace-out", str(trace),
        ]) == 0
        assert "tracing_overhead — 1,500 requested arrivals" in capsys.readouterr().out
        merged = json.loads(output.read_text())
        assert merged["metrics"] == {"variants": {"run": {}}}
        report = merged["tracing_overhead"]
        assert set(report["variants"]) == {"off", "sampled"}
        assert all(report[flag] is True for flag in SECTIONS["tracing_overhead"].flags)
        assert all(run["max_rss_mb"] > 0 for run in report["variants"].values())
        # Only the traced run exports, and nothing live reaches the file.
        assert json.loads(trace.read_text())["traceEvents"]
        assert "recorder" not in report["variants"]["sampled"]
