"""Pagemap view: the ``/proc/<pid>/pagemap`` interface Groundhog scans.

Groundhog identifies the pages dirtied during an invocation by reading the
64-bit pagemap entry of every mapped page and checking bit 55 (soft-dirty).
The dominant cost of that scan is proportional to the number of *mapped*
pages, not the number of dirty ones, which is why restoration time grows
with address-space size even when the write set is tiny (§5.2.2, Fig. 3
right).

:class:`PagemapView` exposes that interface over a simulated address space
and reports the scan cost; the dirty pages themselves come from the address
space's soft-dirty bitmaps as a page run list, so the result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.errors import PagemapError
from repro.mem.address_space import AddressSpace
from repro.mem.image import Runs, intersect_runs, page_numbers


@dataclass(frozen=True)
class PagemapEntry:
    """Decoded pagemap information for one page."""

    page_number: int
    present: bool
    soft_dirty: bool
    exclusively_mapped: bool = True

    def to_raw(self) -> int:
        """Encode roughly like a real pagemap entry (bits 55, 56, 63)."""
        raw = 0
        if self.soft_dirty:
            raw |= 1 << 55
        if self.exclusively_mapped:
            raw |= 1 << 56
        if self.present:
            raw |= 1 << 63
        return raw


class PagemapScanResult(NamedTuple):
    """Result of scanning a set of pages: dirty runs plus accounting.

    A named tuple: every soft-dirty restore scans once.
    """

    dirty_runs: Runs
    scanned_pages: int
    cost_seconds: float

    @property
    def dirty_pages(self) -> Tuple[int, ...]:
        """Every dirty page number, ascending."""
        return page_numbers(self.dirty_runs)


class PagemapView:
    """Read-only pagemap/soft-dirty view over an :class:`AddressSpace`."""

    def __init__(self, address_space: AddressSpace) -> None:
        self._space = address_space

    def entry(self, page_number: int) -> PagemapEntry:
        """Return the pagemap entry for a single page."""
        if page_number < 0:
            raise PagemapError(f"invalid page number {page_number}")
        return PagemapEntry(
            page_number=page_number,
            present=self._space.is_resident(page_number),
            soft_dirty=self._space.is_soft_dirty(page_number),
        )

    def scan_mapped(self) -> PagemapScanResult:
        """Scan the pagemap entries of every mapped page.

        This is the operation Groundhog performs after each invocation: the
        cost is ``pagemap_scan_seconds`` per mapped page; the result is the
        exact set of soft-dirty pages.  The address space drops tracking
        state when pages are unmapped, so the set lies in mapped ranges.
        """
        mapped_pages = self._space.total_mapped_pages
        cost = mapped_pages * self._space.cost_model.pagemap_scan_seconds
        return PagemapScanResult(
            dirty_runs=self._space.soft_dirty_runs(),
            scanned_pages=mapped_pages,
            cost_seconds=cost,
        )

    def scan_range(self, start_page: int, num_pages: int) -> PagemapScanResult:
        """Scan a specific page range (cost proportional to the range size)."""
        if num_pages < 0:
            raise PagemapError("num_pages must be non-negative")
        window = ((start_page, start_page + num_pages),) if num_pages else ()
        cost = num_pages * self._space.cost_model.pagemap_scan_seconds
        return PagemapScanResult(
            dirty_runs=intersect_runs(self._space.soft_dirty_runs(), window),
            scanned_pages=num_pages,
            cost_seconds=cost,
        )
