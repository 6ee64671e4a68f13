"""Benchmark workloads: the paper's 58 functions plus the §5.2 microbenchmark."""

from repro.workloads.spec import BenchmarkSpec, PaperReference
from repro.workloads.registry import (
    all_benchmarks,
    benchmarks_by_suite,
    find_benchmark,
    representative_benchmarks,
    wasm_benchmarks,
)
from repro.workloads.microbench import microbenchmark_profile

__all__ = [
    "BenchmarkSpec",
    "PaperReference",
    "all_benchmarks",
    "benchmarks_by_suite",
    "find_benchmark",
    "representative_benchmarks",
    "wasm_benchmarks",
    "microbenchmark_profile",
]
