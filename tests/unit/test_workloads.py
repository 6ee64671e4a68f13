"""Tests for the benchmark suites and the microbenchmark."""

from __future__ import annotations

import pytest

from repro.baselines.registry import mechanism_class
from repro.errors import WorkloadError
from repro.runtime.profiles import Language
from repro.workloads import (
    all_benchmarks,
    benchmarks_by_suite,
    find_benchmark,
    microbenchmark_profile,
    representative_benchmarks,
    wasm_benchmarks,
)
from repro.workloads.microbench import FIXED_SECONDS, READ_WORD_SECONDS, WRITE_WORD_SECONDS


class TestSuites:
    def test_total_benchmark_count_matches_paper(self):
        assert len(all_benchmarks()) == 58

    def test_per_suite_counts_match_paper(self):
        assert len(benchmarks_by_suite("pyperformance")) == 22
        assert len(benchmarks_by_suite("polybench")) == 23
        assert len(benchmarks_by_suite("faasprofiler")) == 13

    def test_faasprofiler_language_split(self):
        specs = benchmarks_by_suite("faasprofiler")
        python = [s for s in specs if s.profile.language is Language.PYTHON]
        node = [s for s in specs if s.profile.language is Language.NODE]
        assert len(python) == 6
        assert len(node) == 7

    def test_unknown_suite_rejected(self):
        with pytest.raises(WorkloadError):
            benchmarks_by_suite("spec-cpu")

    def test_qualified_names_are_unique(self):
        names = [spec.qualified_name for spec in all_benchmarks()]
        assert len(names) == len(set(names))

    def test_every_profile_is_internally_consistent(self):
        for spec in all_benchmarks():
            profile = spec.profile
            assert profile.exec_seconds > 0
            assert profile.dirtied_kpages <= profile.total_kpages
            assert profile.total_pages >= 1
            assert profile.suite == spec.suite

    def test_node_functions_are_multithreaded_and_not_wasm(self):
        for spec in benchmarks_by_suite("faasprofiler"):
            if spec.profile.language is Language.NODE:
                assert spec.profile.threads > 1
                assert not spec.profile.wasm_compatible

    def test_polybench_footprints_are_small(self):
        for spec in benchmarks_by_suite("polybench"):
            assert spec.profile.total_kpages <= 5.0

    def test_node_footprints_are_large(self):
        node = [s for s in benchmarks_by_suite("faasprofiler")
                if s.profile.language is Language.NODE]
        assert all(s.profile.total_kpages > 100 for s in node)

    def test_paper_references_present_for_all(self):
        for spec in all_benchmarks():
            assert spec.paper.base_invoker_ms is not None
            assert spec.paper.restore_ms is not None


class TestLookups:
    def test_find_by_unique_name(self):
        spec = find_benchmark("pyaes")
        assert spec.suite == "pyperformance"

    def test_ambiguous_name_requires_language(self):
        with pytest.raises(WorkloadError):
            find_benchmark("get-time")
        assert find_benchmark("get-time", "p").profile.language is Language.PYTHON
        assert find_benchmark("get-time", "n").profile.language is Language.NODE

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            find_benchmark("does-not-exist")

    def test_representative_subset_matches_paper(self):
        subset = representative_benchmarks()
        assert len(subset) == 14
        names = {spec.qualified_name for spec in subset}
        assert "base64 (n)" in names and "seidel-2d (c)" in names

    def test_wasm_subset_excludes_node_and_faasprofiler_python(self):
        subset = wasm_benchmarks()
        assert len(subset) == 45
        assert all(spec.profile.language is not Language.NODE for spec in subset)

    def test_fork_subset_excludes_node(self):
        fork = mechanism_class("fork")
        subset = [spec for spec in all_benchmarks() if fork.supports(spec.profile)]
        assert len(subset) == 51
        assert all(spec.profile.language is not Language.NODE for spec in subset)

    def test_logging_models_a_memory_leak(self):
        spec = find_benchmark("logging")
        assert spec.profile.leak_pages_per_invocation > 0

    def test_img_resize_is_gc_sensitive(self):
        spec = find_benchmark("img-resize", "n")
        assert spec.profile.restore_gc_seconds > 0
        assert spec.profile.restore_gc_probability > 0


class TestMicrobenchmark:
    def test_profile_reflects_parameters(self):
        profile = microbenchmark_profile(10_000, 2_500)
        assert profile.total_pages == 10_000
        assert profile.dirtied_pages == 2_500
        assert profile.read_pages == 10_000

    def test_exec_time_scales_with_work(self):
        small = microbenchmark_profile(10_000, 0)
        large = microbenchmark_profile(10_000, 10_000)
        expected_delta = 10_000 * WRITE_WORD_SECONDS
        assert large.exec_seconds - small.exec_seconds == pytest.approx(expected_delta)
        assert small.exec_seconds >= FIXED_SECONDS + 10_000 * READ_WORD_SECONDS

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            microbenchmark_profile(0, 0)
        with pytest.raises(WorkloadError):
            microbenchmark_profile(100, 200)
        with pytest.raises(WorkloadError):
            microbenchmark_profile(100, -1)

    def test_distinct_sweep_points_have_distinct_names(self):
        a = microbenchmark_profile(1_000, 100)
        b = microbenchmark_profile(1_000, 200)
        assert a.name != b.name
