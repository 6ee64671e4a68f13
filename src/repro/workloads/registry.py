"""Lookup across all benchmark suites."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

from repro.errors import WorkloadError
from repro.workloads.faasprofiler import faasprofiler_benchmarks
from repro.workloads.polybench import polybench_benchmarks
from repro.workloads.pyperformance import pyperformance_benchmarks
from repro.workloads.spec import BenchmarkSpec

#: The suites evaluated in the paper, in presentation order.
SUITES = ("pyperformance", "polybench", "faasprofiler")


@lru_cache(maxsize=1)
def _load_all() -> tuple:
    benchmarks: List[BenchmarkSpec] = []
    benchmarks.extend(pyperformance_benchmarks())
    benchmarks.extend(polybench_benchmarks())
    benchmarks.extend(faasprofiler_benchmarks())
    return tuple(benchmarks)


def all_benchmarks() -> List[BenchmarkSpec]:
    """All 58 benchmarks across the three suites."""
    return list(_load_all())


def benchmarks_by_suite(suite: str) -> List[BenchmarkSpec]:
    """Benchmarks of one suite (``pyperformance``/``polybench``/``faasprofiler``)."""
    if suite not in SUITES:
        raise WorkloadError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    return [spec for spec in _load_all() if spec.suite == suite]


def find_benchmark(name: str, language: Optional[str] = None) -> BenchmarkSpec:
    """Find a benchmark by name (and language when names collide across suites)."""
    matches = [spec for spec in _load_all() if spec.name == name]
    if language is not None:
        matches = [s for s in matches if s.profile.language.value == language
                   or s.profile.language.short == language]
    if not matches:
        raise WorkloadError(f"no benchmark named {name!r}"
                            + (f" for language {language!r}" if language else ""))
    if len(matches) > 1:
        options = ", ".join(s.qualified_name for s in matches)
        raise WorkloadError(
            f"benchmark name {name!r} is ambiguous ({options}); pass a language"
        )
    return matches[0]


def representative_benchmarks() -> List[BenchmarkSpec]:
    """The 14-function subset used for Figs. 7 and 8, sorted by restore time."""
    subset = [spec for spec in _load_all() if spec.representative]
    return sorted(subset, key=lambda s: s.paper.restore_ms or 0.0, reverse=True)


def wasm_benchmarks() -> List[BenchmarkSpec]:
    """Benchmarks included in the FAASM comparison (WebAssembly-compatible)."""
    return [spec for spec in _load_all() if spec.profile.wasm_compatible]
