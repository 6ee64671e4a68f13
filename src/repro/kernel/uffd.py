"""userfaultfd-style write-protection tracking (the §4.3 ablation).

The paper prototyped an alternative write-set tracker based on Linux's
userfaultfd write-protect mode and found it significantly slower than
soft-dirty bits because every first write to a page context-switches to a
user-space fault handler.  It only broke even when almost nothing was
dirtied.  :class:`UffdTracker` reproduces that trade-off: it arms
write-protection on every resident page and collects the written pages in a
user-space list, with the (higher) per-fault cost charged to the function's
critical path by the address space.
"""

from __future__ import annotations

from typing import List

from repro.mem.address_space import AddressSpace
from repro.mem.image import Runs, runs_of_pages


class UffdTracker:
    """Track the write set of a process using write-protection faults."""

    def __init__(self, address_space: AddressSpace) -> None:
        self._space = address_space
        self._written: List[int] = []

    def arm(self) -> int:
        """Write-protect every resident page; returns how many were protected.

        Unlike the soft-dirty approach there is a real per-page registration
        cost here, but it is small compared to the per-fault cost, so the
        model folds it into the arm step's return value only.
        """
        self._written.clear()
        return self._space.arm_write_protection(self._on_write_fault)

    def collect(self) -> Runs:
        """Return the pages written since :meth:`arm` was called, as a run list.

        No scan is needed (the handler already collected the pages): this is
        the one advantage UFFD has over soft-dirty bits, and why the paper
        found it marginally faster only when the write set was nearly empty.
        """
        return runs_of_pages(self._written)

    def _on_write_fault(self, page_number: int) -> None:
        self._written.append(page_number)
