"""Benchmark specifications.

A :class:`BenchmarkSpec` pairs a function's workload profile (the simulator's
*input*) with the paper's published reference measurements (used only for
paper-vs-measured comparisons in reports — never fed back into the
simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.profiles import FunctionProfile


@dataclass(frozen=True)
class PaperReference:
    """Published measurements for one benchmark (Appendix A, Table 3)."""

    #: Baseline (insecure warm reuse) invoker latency in milliseconds.
    base_invoker_ms: Optional[float] = None
    #: Groundhog invoker latency in milliseconds.
    gh_invoker_ms: Optional[float] = None
    #: Groundhog restoration time in milliseconds.
    restore_ms: Optional[float] = None
    #: Baseline peak throughput in requests/second (4 containers).
    base_throughput_rps: Optional[float] = None
    #: Groundhog peak throughput in requests/second (4 containers).
    gh_throughput_rps: Optional[float] = None
    #: One-time snapshot latency in milliseconds (Fig. 8 subset only).
    snapshot_ms: Optional[float] = None


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: its profile plus the paper's reference numbers."""

    profile: FunctionProfile
    suite: str
    paper: PaperReference = field(default_factory=PaperReference)
    #: Whether the paper includes this function in the 14-benchmark
    #: representative subset used for Figs. 7 and 8.
    representative: bool = False

    @property
    def name(self) -> str:
        """Unqualified benchmark name."""
        return self.profile.name

    @property
    def qualified_name(self) -> str:
        """Name with language suffix, e.g. ``pyaes (p)``."""
        return self.profile.qualified_name

    @property
    def language(self) -> str:
        """Language short code."""
        return self.profile.language.value
