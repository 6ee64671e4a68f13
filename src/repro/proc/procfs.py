"""The ``/proc`` interface Groundhog reads and writes.

Groundhog's manager uses four files per function process:

* ``/proc/<pid>/maps`` — the memory layout (one line per VMA),
* ``/proc/<pid>/pagemap`` — per-page present and soft-dirty bits,
* ``/proc/<pid>/clear_refs`` — writing ``4`` clears every soft-dirty bit,
* ``/proc/<pid>/mem`` — direct reads/writes of the tracee's memory.

:class:`ProcFs` exposes those operations over a :class:`SimProcess` and
reports the time each one takes, using the calibrated cost model.  All
restoration-time accounting in the reproduction flows through these methods
(plus ptrace), exactly like the real system.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import NoSuchProcessError
from repro.mem.layout import MemoryLayout
from repro.mem.pagemap import PagemapScanResult, PagemapView
from repro.proc.process import SimProcess


class ProcFs:
    """``/proc`` accessor for one simulated process."""

    def __init__(self, process: SimProcess) -> None:
        self._process = process
        self._pagemap = PagemapView(process.address_space)

    @property
    def process(self) -> SimProcess:
        """The process this view refers to."""
        return self._process

    def _check_alive(self) -> None:
        if not self._process.is_alive:
            raise NoSuchProcessError(self._process.pid)

    # ------------------------------------------------------------------
    # maps
    # ------------------------------------------------------------------

    def read_maps(self) -> Tuple[MemoryLayout, float]:
        """Read and parse ``/proc/<pid>/maps``.

        Returns the layout and the parse cost (proportional to the number of
        VMAs, one line each).  The layout is the address space's memoised
        :meth:`~repro.mem.address_space.AddressSpace.layout`, which shares
        the space's own VMA records, so only the simulated cost is per VMA.
        """
        self._check_alive()
        layout = self._process.address_space.layout()
        cost = layout.num_vmas * self._process.cost_model.maps_read_per_vma_seconds
        return layout, cost

    # ------------------------------------------------------------------
    # pagemap / clear_refs
    # ------------------------------------------------------------------

    def scan_pagemap(self) -> PagemapScanResult:
        """Scan the soft-dirty bit of every mapped page."""
        self._check_alive()
        return self._pagemap.scan_mapped()

    def clear_soft_dirty(self) -> Tuple[int, float]:
        """Write ``4`` to ``clear_refs``: reset all soft-dirty bits.

        Returns the number of bits cleared and the cost, which scales with
        the number of pages whose PTEs must be rewritten.
        """
        self._check_alive()
        cleared = self._process.address_space.clear_soft_dirty()
        cost = cleared * self._process.cost_model.soft_dirty_clear_seconds
        return cleared, cost

    # ------------------------------------------------------------------
    # mem
    # ------------------------------------------------------------------

    def read_mem_page(self, page_number: int) -> Tuple[bytes, float]:
        """Read one page of the tracee via ``/proc/<pid>/mem``."""
        self._check_alive()
        content = self._process.address_space.kernel_read_page(page_number)
        return content, self._process.cost_model.page_copy_seconds

    def write_mem_page(self, page_number: int, data: bytes) -> float:
        """Write one page of the tracee via ``/proc/<pid>/mem``."""
        self._check_alive()
        self._process.address_space.kernel_write_page(page_number, data)
        return self._process.cost_model.page_copy_seconds

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def read_status(self) -> Tuple[dict, float]:
        """Return a small ``/proc/<pid>/status``-like summary."""
        self._check_alive()
        space = self._process.address_space
        status = {
            "pid": self._process.pid,
            "name": self._process.name,
            "state": self._process.state.value,
            "threads": self._process.num_threads,
            "vm_size_pages": space.total_mapped_pages,
            "vm_rss_pages": space.resident_pages,
            "uid": self._process.uid,
        }
        return status, 2e-6
