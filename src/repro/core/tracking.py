"""Write-set tracking: soft-dirty bits and the userfaultfd alternative.

Groundhog needs to know which pages an invocation modified so it can restore
only those (§4.3).  The shipped design uses the kernel's soft-dirty bit:
arming is a single ``clear_refs`` write, the per-write overhead is one minor
write-protect fault, and collection is a pagemap scan over the whole mapped
address space.

The paper also prototyped a userfaultfd-based tracker and found it slower in
all but the emptiest write sets, because every tracked write context-switches
into a user-space handler.  Both trackers are implemented here so the §4.3
ablation benchmark can reproduce that comparison.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Tuple

from repro.kernel.uffd import UffdTracker
from repro.mem.image import Runs, page_numbers
from repro.proc.procfs import ProcFs


class TrackingCollection(NamedTuple):
    """Result of collecting a write set (a named tuple: one per restore)."""

    #: The written pages, as a page run list.
    dirty_runs: Runs
    scanned_pages: int
    collect_seconds: float

    @property
    def dirty_pages(self) -> Tuple[int, ...]:
        """Every written page number, ascending."""
        return page_numbers(self.dirty_runs)


class WriteSetTracker(abc.ABC):
    """Interface of a write-set tracker over one function process."""

    name: str = "tracker"

    def __init__(self, procfs: ProcFs) -> None:
        self.procfs = procfs

    @abc.abstractmethod
    def arm(self) -> float:
        """Start (or re-start) tracking; returns the arming cost in seconds."""

    @abc.abstractmethod
    def collect(self) -> TrackingCollection:
        """Return the pages written since the last :meth:`arm`."""


class SoftDirtyTracker(WriteSetTracker):
    """Track writes with the kernel's soft-dirty bit (Groundhog's default)."""

    name = "soft-dirty"

    def arm(self) -> float:
        _, cost = self.procfs.clear_soft_dirty()
        return cost

    def collect(self) -> TrackingCollection:
        scan = self.procfs.scan_pagemap()
        return TrackingCollection(
            dirty_runs=scan.dirty_runs,
            scanned_pages=scan.scanned_pages,
            collect_seconds=scan.cost_seconds,
        )


class UffdWriteTracker(WriteSetTracker):
    """Track writes with userfaultfd write-protection (the §4.3 ablation).

    Collection is nearly free (the handler already has the list), but every
    tracked write paid a much larger fault, so this only wins when almost
    nothing is written.
    """

    name = "userfaultfd"

    #: Registration cost per resident page when arming write-protection.
    ARM_COST_PER_PAGE_SECONDS = 0.06e-6
    #: Fixed cost of draining the fault queue at collection time.
    COLLECT_FIXED_SECONDS = 40e-6

    def __init__(self, procfs: ProcFs) -> None:
        super().__init__(procfs)
        self._uffd = UffdTracker(procfs.process.address_space)

    def arm(self) -> float:
        protected = self._uffd.arm()
        return protected * self.ARM_COST_PER_PAGE_SECONDS

    def collect(self) -> TrackingCollection:
        return TrackingCollection(
            dirty_runs=self._uffd.collect(),
            scanned_pages=0,
            collect_seconds=self.COLLECT_FIXED_SECONDS,
        )
