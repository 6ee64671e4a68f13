"""Snapshotting the function process (§4.2).

After the container's runtime has been initialised and the deployer-supplied
dummy request has warmed it up, the Groundhog manager interrupts the function
process and records everything needed to put it back into exactly this state:

* the CPU registers of every thread (via ptrace),
* the memory layout (from ``/proc/<pid>/maps``) and the program break,
* the contents of every resident page (via ``/proc/<pid>/mem``), stored in
  the manager's own memory as a run-length :class:`~repro.mem.image.PageImage`
  (runs of pages sharing one payload, so a long stretch of identical pages
  costs one entry),

and finally arms the write-set tracker (for soft-dirty bits, a
``clear_refs`` write) so that tracking starts from a clean slate and the
first request's writes are restored like every later request's, then
resumes the process.  The snapshot is taken **before** any client request
reaches the function, so it is guaranteed to be free of client secrets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.tracking import SoftDirtyTracker, WriteSetTracker
from repro.errors import SnapshotError
from repro.mem.image import PageImage
from repro.mem.layout import MemoryLayout
from repro.proc.procfs import ProcFs
from repro.proc.ptrace import Ptrace
from repro.proc.registers import RegisterSet


@dataclass(frozen=True)
class ProcessSnapshot:
    """A clean-state snapshot of one function process."""

    #: Per-thread register files, keyed by tid.
    registers: Mapping[int, RegisterSet]
    #: The memory layout at snapshot time.
    layout: MemoryLayout
    #: Every resident page and its payload.
    image: PageImage
    #: Program break at snapshot time.
    brk: int

    @property
    def num_threads(self) -> int:
        """Threads captured in the snapshot."""
        return len(self.registers)

    @property
    def num_pages(self) -> int:
        """Resident pages captured in the snapshot."""
        return self.image.num_pages

    @property
    def num_vmas(self) -> int:
        """Mappings recorded in the snapshot layout."""
        return self.layout.num_vmas

    def page_content(self, page_number: int) -> bytes:
        """Return the snapshotted payload of a page (empty if absent)."""
        return self.image.content(page_number)


@dataclass(frozen=True)
class SnapshotStats:
    """Timing breakdown of taking one snapshot."""

    interrupt_seconds: float
    read_maps_seconds: float
    capture_registers_seconds: float
    capture_pages_seconds: float
    #: Arming the write-set tracker (``clear_refs`` for soft-dirty bits).
    clear_soft_dirty_seconds: float
    resume_seconds: float
    pages_captured: int
    vmas_captured: int
    threads_captured: int

    @property
    def total_seconds(self) -> float:
        """End-to-end snapshot duration."""
        return (
            self.interrupt_seconds
            + self.read_maps_seconds
            + self.capture_registers_seconds
            + self.capture_pages_seconds
            + self.clear_soft_dirty_seconds
            + self.resume_seconds
        )


class Snapshotter:
    """Takes clean-state snapshots of a function process."""

    def __init__(
        self,
        ptrace: Ptrace,
        procfs: ProcFs,
        tracker: Optional[WriteSetTracker] = None,
    ) -> None:
        self._ptrace = ptrace
        self._procfs = procfs
        self._tracker = tracker if tracker is not None else SoftDirtyTracker(procfs)

    def take(self) -> Tuple[ProcessSnapshot, SnapshotStats]:
        """Snapshot the process and return the snapshot plus timing stats."""
        process = self._procfs.process
        if not process.is_alive:
            raise SnapshotError("cannot snapshot an exited process")
        cm = process.cost_model

        if not self._ptrace.attached:
            self._ptrace.seize()
        interrupt_seconds = self._ptrace.interrupt_all()

        registers, capture_registers_seconds = self._ptrace.get_registers()

        layout, read_maps_seconds = self._procfs.read_maps()

        space = process.address_space
        image = space.capture()
        capture_pages_seconds = image.num_pages * cm.snapshot_page_seconds

        clear_soft_dirty_seconds = self._tracker.arm()

        resume_seconds = self._ptrace.resume_all()

        snapshot = ProcessSnapshot(
            registers=dict(registers),
            layout=layout,
            image=image,
            brk=space.brk,
        )
        stats = SnapshotStats(
            interrupt_seconds=interrupt_seconds,
            read_maps_seconds=read_maps_seconds,
            capture_registers_seconds=capture_registers_seconds,
            capture_pages_seconds=capture_pages_seconds,
            clear_soft_dirty_seconds=clear_soft_dirty_seconds,
            resume_seconds=resume_seconds,
            pages_captured=image.num_pages,
            vmas_captured=layout.num_vmas,
            threads_captured=len(registers),
        )
        return snapshot, stats
