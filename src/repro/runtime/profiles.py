"""Function profiles: the workload characteristics that drive the models.

A :class:`FunctionProfile` describes one FaaS function's *intrinsic*
behaviour — how long it computes, how much memory its runtime maps, how many
pages an invocation dirties, how much layout churn it causes, its input and
output sizes, and a few behavioural quirks the paper calls out (the
``logging`` benchmark's memory leak, Node.js functions' sensitivity to
having their garbage-collection clock rolled back).

These characteristics are **inputs** to the reproduction, taken from the
paper's Appendix A tables where available (baseline invoker latency, mapped
pages, restored pages, fault counts, input sizes).  Everything the paper
*measures about Groundhog* — overheads, restoration durations, throughput —
is computed by the simulator from these inputs; nothing in a profile encodes
a result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config import PAGE_SIZE
from repro.errors import WorkloadError


class Language(enum.Enum):
    """Implementation language / runtime family of a function."""

    PYTHON = "python"
    C = "c"
    NODE = "node"

    @property
    def short(self) -> str:
        """The one-letter suffix the paper uses: (p), (c), (n)."""
        return {"python": "p", "c": "c", "node": "n"}[self.value]


@dataclass(frozen=True)
class FunctionProfile:
    """Workload characteristics of one FaaS function."""

    #: Benchmark name, e.g. ``"pyaes"`` or ``"img-resize"``.
    name: str
    #: Language / runtime family.
    language: Language
    #: Benchmark suite the function comes from.
    suite: str = ""
    #: Pure compute time of one invocation on the baseline (seconds).
    exec_seconds: float = 0.010
    #: Relative standard deviation of the compute time (run-to-run jitter).
    exec_jitter: float = 0.02
    #: Total mapped address-space size, in thousands of pages.
    total_kpages: float = 4.0
    #: Pages dirtied (and therefore restored) per invocation, in thousands.
    dirtied_kpages: float = 0.25
    #: Pages read-touched per invocation, in thousands (working set reads).
    read_kpages: Optional[float] = None
    #: Number of new anonymous regions mapped per invocation (layout churn).
    regions_mapped_per_invocation: int = 0
    #: Number of scratch regions unmapped per invocation.
    regions_unmapped_per_invocation: int = 0
    #: Heap growth per invocation, in pages (reversed by restoring ``brk``).
    heap_growth_pages: int = 8
    #: Request payload size in bytes.
    input_bytes: int = 256
    #: Response payload size in bytes.
    output_bytes: int = 512
    #: Number of runtime threads (Node.js runtimes are multi-threaded, which
    #: is what rules out the fork baseline for them).
    threads: int = 1
    #: Fraction of the address space mapped during runtime initialisation;
    #: the remainder is mapped lazily during the warm-up (dummy) request.
    init_fraction: float = 0.7
    #: Whether the function can be compiled to WebAssembly (FAASM comparison).
    wasm_compatible: bool = True
    #: Override of the language-level wasm execution-speed factor.
    wasm_factor: Optional[float] = None
    #: Pages leaked (never freed) per invocation — the ``logging`` benchmark.
    leak_pages_per_invocation: int = 0
    #: Extra compute seconds per thousand leaked pages accumulated so far.
    leak_slowdown_seconds_per_kpage: float = 0.0
    #: Extra compute seconds occasionally incurred after a restore because
    #: time-dependent runtime state (GC clocks) was rolled back (§5.3.1).
    restore_gc_seconds: float = 0.0
    #: Probability that a restored runtime pays ``restore_gc_seconds`` on the
    #: next invocation.
    restore_gc_probability: float = 0.0
    #: Free-form description shown in reports.
    description: str = ""

    def __post_init__(self) -> None:
        if self.exec_seconds <= 0:
            raise WorkloadError(f"{self.name}: exec_seconds must be positive")
        if self.total_kpages <= 0:
            raise WorkloadError(f"{self.name}: total_kpages must be positive")
        if self.dirtied_kpages < 0:
            raise WorkloadError(f"{self.name}: dirtied_kpages must be non-negative")
        if self.dirtied_kpages > self.total_kpages:
            raise WorkloadError(
                f"{self.name}: cannot dirty more pages than are mapped "
                f"({self.dirtied_kpages}K > {self.total_kpages}K)"
            )
        if not 0.0 < self.init_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: init_fraction must be in (0, 1]")
        if not 0.0 <= self.restore_gc_probability <= 1.0:
            raise WorkloadError(f"{self.name}: restore_gc_probability must be in [0, 1]")
        if self.threads < 1:
            raise WorkloadError(f"{self.name}: threads must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def qualified_name(self) -> str:
        """Name with the paper's language suffix, e.g. ``pyaes (p)``."""
        return f"{self.name} ({self.language.short})"

    @property
    def total_pages(self) -> int:
        """Total mapped pages (absolute count)."""
        return max(1, int(round(self.total_kpages * 1000)))

    @property
    def dirtied_pages(self) -> int:
        """Pages dirtied per invocation (absolute count)."""
        return int(round(self.dirtied_kpages * 1000))

    @property
    def read_pages(self) -> int:
        """Pages read-touched per invocation (absolute count)."""
        if self.read_kpages is not None:
            return int(round(self.read_kpages * 1000))
        # Default working-set reads: a couple of times the write set, capped
        # by the mapped size (REAP reports working sets ~9% of footprint).
        return min(self.total_pages, max(self.dirtied_pages * 2, 64))

    @property
    def footprint_bytes(self) -> int:
        """Mapped address-space size in bytes."""
        return self.total_pages * PAGE_SIZE

    def scaled(self, factor: float) -> "FunctionProfile":
        """Return a copy with memory characteristics scaled by ``factor``.

        Useful for quick what-if experiments and property tests; compute
        time is left untouched.
        """
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")
        return replace(
            self,
            total_kpages=self.total_kpages * factor,
            dirtied_kpages=self.dirtied_kpages * factor,
            read_kpages=None if self.read_kpages is None else self.read_kpages * factor,
        )
