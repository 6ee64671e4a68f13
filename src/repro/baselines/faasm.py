"""FAASM-style WebAssembly request isolation (§5.3.3).

FAASM packs functions compiled to WebAssembly into Faaslets whose linear
memory is one contiguous region of at most 4 GiB.  Resetting a Faaslet
between requests amounts to remapping that contiguous region onto a
pre-warmed copy-on-write snapshot — fast and largely independent of how much
was written.  The execution itself runs under the wasm JIT, which is slower
than native CPython for the pyperformance functions and slightly faster than
native builds for the PolyBench kernels; the paper finds those compilation
effects dominate the comparison rather than the isolation cost.

Functions that cannot be compiled to WebAssembly (the Node.js benchmarks)
are not supported — FAASM is not a general solution to request isolation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.policy import IsolationMechanism
from repro.core.restore import RestoreBreakdown, RestoreResult
from repro.mem.image import PageImage, count_pages, revert
from repro.mem.layout import MemoryLayout
from repro.proc.process import SimProcess
from repro.proc.procfs import ProcFs
from repro.runtime import build_runtime
from repro.runtime.base import FunctionRuntime, InvocationResult
from repro.runtime.profiles import FunctionProfile, Language


class FaasmIsolation(IsolationMechanism):
    """Faaslet-style isolation: wasm execution + contiguous-heap reset."""

    name = "faasm"
    provides_isolation = True
    interposes = False

    def __init__(self, profile: FunctionProfile, **kwargs) -> None:
        super().__init__(profile, **kwargs)
        self._heap_snapshot = PageImage()
        self._layout_snapshot: Optional[MemoryLayout] = None
        self._brk_snapshot: int = 0
        self._procfs: Optional[ProcFs] = None

    @classmethod
    def supports(cls, profile: FunctionProfile) -> bool:
        """Only WebAssembly-compatible functions can become Faaslets."""
        return profile.wasm_compatible and profile.language is not Language.NODE

    def _make_runtime(self, process: SimProcess) -> FunctionRuntime:
        return build_runtime(self.profile, process, self.rng, wasm=True)

    def _prepare(self) -> Tuple[float, int]:
        """Record the pre-warmed linear-memory snapshot the reset remaps to."""
        assert self.process is not None and self.runtime is not None
        space = self.process.address_space
        self._procfs = ProcFs(self.process)
        self._heap_snapshot = space.capture()
        self._layout_snapshot = space.layout()
        self._brk_snapshot = space.brk
        self.runtime.mark_clean_state()
        # Arm tracking so the reset knows which pages to revert; the reset
        # *cost* is modelled as a remap and does not depend on this.
        space.clear_soft_dirty()
        prepare_seconds = (
            self._heap_snapshot.num_pages * self.cost_model.snapshot_page_seconds * 0.5
        )
        return prepare_seconds, self._heap_snapshot.num_pages

    def _post_invoke(
        self, result: InvocationResult, *, caller, verify: bool
    ) -> Tuple[float, Optional[RestoreResult], bool]:
        """Reset the Faaslet: revert its memory to the pre-warmed snapshot."""
        assert self.process is not None and self.runtime is not None
        space = self.process.address_space
        dirty = space.soft_dirty_runs()
        restored, dropped = revert(space, self._heap_snapshot, dirty)
        if self._layout_snapshot is not None and space.brk != self._brk_snapshot:
            space.set_brk(self._brk_snapshot)
        space.clear_soft_dirty()
        self.runtime.reset_logical_state()

        cm = self.cost_model
        reset_seconds = (
            cm.faasm_reset_base_seconds
            + self.profile.total_kpages * cm.faasm_reset_per_kpage_seconds
        )
        reset = RestoreResult(
            breakdown=RestoreBreakdown(restoring_memory=reset_seconds),
            pages_scanned=0,
            dirty_pages=count_pages(dirty),
            pages_restored=restored,
            pages_dropped=dropped,
            syscalls={"mremap": 1},
        )
        return reset_seconds, reset, False
