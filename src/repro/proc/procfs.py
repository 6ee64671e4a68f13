"""The ``/proc`` interface Groundhog reads and writes.

Groundhog's manager reads and writes these files per function process:

* ``/proc/<pid>/maps`` — the memory layout (one line per VMA),
* ``/proc/<pid>/pagemap`` — per-page present and soft-dirty bits,
* ``/proc/<pid>/clear_refs`` — writing ``4`` clears every soft-dirty bit.

:class:`ProcFs` exposes those operations over a :class:`SimProcess` and
reports the time each one takes, using the calibrated cost model.  The
restore's memory copy (``/proc/<pid>/mem``) writes the snapshot's image
runs through the address space's kernel-side path in one call.
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
