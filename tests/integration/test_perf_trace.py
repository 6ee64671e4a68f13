"""Integration tests for the perf-trace stack (sketch mode + fan-out).

End-to-end claims from the bounded-metrics and indexed-routing work are
pinned here:

* **Control-plane parity** — swapping the metrics collector into sketch
  mode must not change what the simulation *does*.  Metrics are
  observe-only unless a tenant SLO is declared, so the PR 5 forecast
  comparison (reactive vs predictive pre-warming) must reproduce the
  same verdict with bit-identical cold-start counts under either mode.
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

All use reduced scales; the full-size numbers live in the
``benchmarks/`` perf-trace and cluster-scale benchmarks and in
``BENCH_perf.json``.
"""

from __future__ import annotations

import pytest
from reference_routing import ReferenceScheduler

import repro.faas.cluster
from repro.analysis.experiments import (
    _cluster_scale_run,
    _perf_trace_run,
    pooled_sketch_stats,
    run_replicated,
    run_slo_control,
)
from repro.faas.sketch import LatencySketch
from repro.workloads import find_benchmark


def _small_trace_worker(seed: int):
    """Module-level (picklable) reduced perf-trace run for fan-out tests."""
    return _perf_trace_run("sketch", invocations=2_500, seed=seed)


def _drop_timing(result):
    """Strip wall-clock fields (the only legitimately nondeterministic ones)."""
    cleaned = dict(result)
    cleaned.pop("wall_seconds", None)
    cleaned.pop("invocations_per_second", None)
    return cleaned


class TestForecastVerdictParity:
    def test_sketch_mode_reproduces_the_predictive_prewarm_verdict(self):
        # The PR 5 experiment, once per metrics mode, same seed and trace.
        spec = find_benchmark("md2html", "p")
        runs = {
            mode: run_slo_control(
                spec,
                parts=("forecast",),
                forecast_duration_seconds=9.0,
                metrics_mode=mode,
            ).forecast
            for mode in ("exact", "sketch")
        }
        for forecast in runs.values():
            assert set(forecast) == {"reactive", "predictive"}

        # The verdict: predictive wins the rising edges in both modes.
        for mode, forecast in runs.items():
            assert (
                forecast["predictive"].rising_cold_starts
                < forecast["reactive"].rising_cold_starts
            ), mode

        # Metrics are observe-only here (no tenant SLOs declared), so the
        # two modes run bit-identical simulations: every behavioural
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

    def test_pooled_sketch_stats_is_a_lossless_reduction(self):
        results = run_replicated(_small_trace_worker, seeds=(101, 202))
        pooled = pooled_sketch_stats(results)
        assert pooled.count == sum(r["recorded"] for r in results)
        # Pooling by merge equals one sketch fed both runs' streams.
        manual = LatencySketch(
            relative_accuracy=results[0]["e2e_sketch"].relative_accuracy
        )
        for result in results:
            manual.merge(result["e2e_sketch"])
        assert pooled == manual.stats()
        assert pooled.minimum == min(r["e2e_sketch"].moments.minimum for r in results)
        assert pooled.maximum == max(r["e2e_sketch"].moments.maximum for r in results)

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            pooled_sketch_stats([])

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
        result = _perf_trace_run(
            "sketch", invocations=2_000, seed=7, trace_file=str(csv_path)
        )
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
        first = _perf_trace_run(
            "sketch", invocations=1_500, seed=11, trace_file=str(csv_path)
        )
        second = _perf_trace_run(
            "sketch", invocations=1_500, seed=11, trace_file=str(csv_path)
        )
        assert _drop_timing(first) == _drop_timing(second)

    def test_trace_file_changes_the_arrival_pattern(self, tmp_path):
        # Same seed, synthetic vs file-driven: different traces, same
        # measurement path.
        csv_path = tmp_path / "trace.csv"
        _write_azure_csv(csv_path, [("fn-a", [0, 0, 100, 0, 0])])
        synthetic = _perf_trace_run("sketch", invocations=1_500, seed=11)
        replayed = _perf_trace_run(
            "sketch", invocations=1_500, seed=11, trace_file=str(csv_path)
        )
        assert synthetic["trace_file"] is None
        assert replayed["trace_file"] == str(csv_path)
        assert replayed["e2e_sketch"] != synthetic["e2e_sketch"]


class TestClusterScaleParity:
    def test_indexed_and_scan_runs_are_bit_identical(self, monkeypatch):
        # The acceptance contract at integration scale: the full harness
        # (diurnal trace, warm-aware routing, work stealing) behaves
        # identically under the shipped scheduler and the scan oracle.
        kwargs = dict(invokers=8, actions=32, invocations=2_500, seed=13)
        indexed = _cluster_scale_run(**kwargs)
        monkeypatch.setattr(repro.faas.cluster, "Scheduler", ReferenceScheduler)
        scan = _cluster_scale_run(**kwargs)
        assert indexed["arrivals"] == scan["arrivals"] > 0
        assert indexed["goodput_fraction"] == scan["goodput_fraction"]
        assert indexed["cold_starts"] == scan["cold_starts"]
        assert indexed["steals"] == scan["steals"] > 0
        assert indexed["routed_per_invoker"] == scan["routed_per_invoker"]
        assert indexed["p99_ms"] == scan["p99_ms"]
