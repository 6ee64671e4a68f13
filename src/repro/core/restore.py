"""Restoring the function process to its snapshot (§4.4).

After the function has returned its response, the Groundhog manager rolls
the process back to the clean snapshot.  The steps — and therefore the
components of the restoration-time breakdown in Fig. 8 — are:

1. **interrupting** every thread of the function process,
2. **reading maps** to learn the current memory layout,
3. **scanning page metadata** (the pagemap soft-dirty bits) to find the
   pages written during the invocation,
4. **diffing memory layouts** between the snapshot and the current state,
5. reversing layout changes by injecting **brk / mmap / munmap / mprotect**
   syscalls,
6. dropping stray resident pages with **madvise(MADV_DONTNEED)**,
7. **restoring memory**: writing back the snapshot contents of every dirty
   page (and of pages in regions that had to be re-mapped),
8. **restoring registers** of every thread,
9. **clearing soft-dirty bits** so tracking is armed for the next request,
10. **detaching** and letting the process run again.

The restorer works exclusively through the ptrace/procfs interfaces, so all
reported durations are derived from the work it actually performed.  Write
sets, stray pages and write-back sets are page run lists, intersected with
the snapshot's run image (:mod:`repro.mem.image`) by bisection, so the
bookkeeping costs O(write-set runs x log snapshot runs) rather than one step
per page or per snapshot run.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.config import PAGE_SIZE
from repro.errors import RestoreError
from repro.core.snapshot import ProcessSnapshot
from repro.core.syscalls import build_restore_plan, madvise_calls_for_runs, summarize_plan
from repro.core.tracking import SoftDirtyTracker, WriteSetTracker
from repro.mem.image import Run, Runs, count_pages, subtract_runs, union_runs
from repro.mem.layout import diff_layouts
from repro.proc.procfs import ProcFs
from repro.proc.ptrace import InjectedSyscall, Ptrace


class RestoreBreakdown(NamedTuple):
    """Per-step durations of one restoration (the Fig. 8 components).

    Every restore builds one, so it is a named tuple, like the other
    records built once per request and read rarely (:class:`RestoreResult`,
    :class:`~repro.core.policy.InvokeReport`): immutable, and several times
    cheaper to build than a frozen dataclass.  Its fields are the steps in
    display order, so :attr:`total_seconds` is ``sum(self)``.
    """

    interrupting: float = 0.0
    reading_maps: float = 0.0
    scanning_page_metadata: float = 0.0
    diffing_memory_layouts: float = 0.0
    brk: float = 0.0
    mmap: float = 0.0
    munmap: float = 0.0
    madvise: float = 0.0
    mprotect: float = 0.0
    restoring_memory: float = 0.0
    clearing_soft_dirty: float = 0.0
    restoring_registers: float = 0.0
    detaching: float = 0.0

    #: Display order used by reports, matching the paper's legend.
    STEP_ORDER = (
        "interrupting",
        "reading_maps",
        "scanning_page_metadata",
        "diffing_memory_layouts",
        "brk",
        "mmap",
        "munmap",
        "madvise",
        "mprotect",
        "restoring_memory",
        "clearing_soft_dirty",
        "restoring_registers",
        "detaching",
    )

    @property
    def total_seconds(self) -> float:
        """End-to-end restoration duration: the steps summed in display order."""
        return sum(self)

    def as_dict(self) -> Dict[str, float]:
        """Return the per-step durations in display order."""
        return dict(zip(self.STEP_ORDER, self))

    def fractions(self) -> Dict[str, float]:
        """Return each step as a fraction of the total (Fig. 8's bars)."""
        total = self.total_seconds
        if total <= 0:
            return {step: 0.0 for step in self.STEP_ORDER}
        return {step: seconds / total for step, seconds in zip(self.STEP_ORDER, self)}


class RestoreResult(NamedTuple):
    """Outcome of one restoration (a named tuple: one per restore)."""

    breakdown: RestoreBreakdown
    #: Pages whose metadata was scanned (the whole mapped address space).
    pages_scanned: int
    #: Pages reported dirty by the tracker.
    dirty_pages: int
    #: Pages whose contents were written back from the snapshot.
    pages_restored: int
    #: Stray resident pages dropped with madvise.
    pages_dropped: int
    #: Number of injected syscalls per name.
    syscalls: Dict[str, int]
    #: True if post-restore verification ran and passed.
    verified: bool = False

    @property
    def total_seconds(self) -> float:
        """End-to-end restoration duration."""
        return self.breakdown.total_seconds


class Restorer:
    """Rolls a function process back to its clean snapshot."""

    def __init__(
        self,
        ptrace: Ptrace,
        procfs: ProcFs,
        tracker: Optional[WriteSetTracker] = None,
    ) -> None:
        self._ptrace = ptrace
        self._procfs = procfs
        self._tracker = tracker if tracker is not None else SoftDirtyTracker(procfs)

    @property
    def tracker(self) -> WriteSetTracker:
        """The write-set tracker in use."""
        return self._tracker

    def restore(self, snapshot: ProcessSnapshot, *, verify: bool = False) -> RestoreResult:
        """Restore the process to ``snapshot`` and return the timing result.

        With ``verify=True`` the restorer walks the entire snapshot after
        restoring and raises :class:`~repro.errors.RestoreError` if any page
        content, mapping, register or the program break deviates from the
        snapshot — the property Groundhog's security argument rests on.
        """
        process = self._procfs.process
        space = process.address_space
        cm = process.cost_model
        ptrace = self._ptrace

        # (1) Interrupt every thread.
        if not ptrace.attached:
            ptrace.seize()
        interrupting = ptrace.interrupt_all()

        # (2) Current memory layout.
        current_layout, reading_maps = self._procfs.read_maps()

        # (3) Write set of the finished invocation.
        collection = self._tracker.collect()
        dirty_runs = collection.dirty_runs

        # (4) Layout differences to reverse.
        diff = diff_layouts(snapshot.layout, current_layout)
        brk_before_restore = current_layout.brk

        # (5) Inject syscalls reversing the layout changes.
        plan = build_restore_plan(diff)
        syscalls = summarize_plan(plan)
        syscall_costs: Dict[str, float] = {"brk": 0.0, "mmap": 0.0, "munmap": 0.0,
                                           "mprotect": 0.0, "madvise_dontneed": 0.0}
        for call in plan:
            name = call.name
            syscall_costs[name] = syscall_costs.get(name, 0.0) + ptrace.inject_syscall(call)

        # (6) Drop stray resident pages (newly paged during the invocation)
        # so the resident set matches the snapshot.  Any page that gained a
        # frame during the invocation was written to (reads of unmapped
        # pages serve the shared zero page), so strays are the written pages
        # the snapshot lacks that are still resident after the plan.  A
        # ``brk`` back down unmapped every page between the two breaks, the
        # request's heap growth among them, so those need no look.
        missing = snapshot.image.missing(dirty_runs)
        if missing and brk_before_restore > snapshot.brk:
            missing = subtract_runs(
                missing, ((snapshot.brk // PAGE_SIZE, brk_before_restore // PAGE_SIZE),)
            )
        stray_runs = space.resident_within(missing) if missing else ()
        pages_dropped = 0
        if stray_runs:
            # The plan never drops pages itself, so these are all its madvises.
            madvise_plan = madvise_calls_for_runs(stray_runs)
            for call in madvise_plan:
                syscall_costs["madvise_dontneed"] += ptrace.inject_syscall(call)
            syscalls["madvise_dontneed"] = len(madvise_plan)
            pages_dropped = count_pages(stray_runs)

        # (7) Write back the snapshot contents of the write set and of any
        # pages living in regions the plan had to re-create.
        recreated = self._recreated_runs(plan, brk_before_restore)
        restore_runs = snapshot.image.covered(
            union_runs(dirty_runs, recreated) if recreated else dirty_runs
        )
        space.kernel_write_image(snapshot.image, restore_runs)
        pages_restored = count_pages(restore_runs)
        restoring_memory = self._memory_restore_cost(
            cm, pages_restored, snapshot.num_pages
        )

        # (8) Registers of every thread (the snapshot's own mapping: the
        # ptrace write only reads it).
        restoring_registers = ptrace.set_registers(snapshot.registers)

        # (9) Re-arm tracking for the next request.
        clearing = self._tracker.arm()

        # (10) Resume and detach.
        detaching = ptrace.resume_all() + ptrace.detach()

        # Both records are built positionally, in field order.
        breakdown = RestoreBreakdown(
            interrupting,
            reading_maps,
            collection.collect_seconds,
            diff.compared_vmas * cm.layout_diff_per_vma_seconds,
            syscall_costs["brk"],
            syscall_costs["mmap"],
            syscall_costs["munmap"],
            syscall_costs["madvise_dontneed"],
            syscall_costs["mprotect"],
            restoring_memory,
            clearing,
            restoring_registers,
            detaching,
        )

        verified = False
        if verify:
            self.verify(snapshot)
            verified = True

        return RestoreResult(
            breakdown,
            collection.scanned_pages,
            count_pages(dirty_runs),
            pages_restored,
            pages_dropped,
            syscalls,
            verified,
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, snapshot: ProcessSnapshot) -> None:
        """Check that the process state matches ``snapshot`` exactly."""
        process = self._procfs.process
        space = process.address_space

        current_layout = space.layout()
        if current_layout.records != snapshot.layout.records:
            raise RestoreError("memory layout differs from the snapshot after restore")
        if space.brk != snapshot.brk:
            raise RestoreError(
                f"program break {space.brk:#x} differs from snapshot {snapshot.brk:#x}"
            )
        current = space.capture()
        extra = subtract_runs(current.coverage, snapshot.image.coverage)
        if extra:
            raise RestoreError(
                f"{count_pages(extra)} resident pages not present in the snapshot remain"
            )
        page_number = snapshot.image.first_difference(current)
        if page_number is not None:
            raise RestoreError(
                f"content of page {page_number} differs from the snapshot"
            )
        for thread in process.threads:
            expected = snapshot.registers.get(thread.tid)
            if expected is not None and thread.get_registers() != expected:
                raise RestoreError(f"registers of thread {thread.tid} were not restored")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _memory_restore_cost(cm, pages_restored: int, snapshot_pages: int) -> float:
        """Per-page copy cost, with coalescing once the write set is large.

        When most of the snapshot was dirtied, contiguous runs dominate and
        Groundhog batches them into larger writes — the slope change at
        ~60 % dirtied pages in Fig. 3 (left).
        """
        if pages_restored <= 0:
            return 0.0
        fraction = pages_restored / max(1, snapshot_pages)
        per_page = (
            cm.page_copy_coalesced_seconds
            if fraction >= cm.coalesce_threshold
            else cm.page_copy_seconds
        )
        return pages_restored * per_page

    @staticmethod
    def _recreated_runs(plan: Sequence[InjectedSyscall], brk_before_restore: int) -> Runs:
        """Pages in ranges the plan had to re-create, whose frames were lost.

        These are regions the invocation unmapped, shrunk regions that were
        re-extended, and heap ranges re-grown by ``brk``: their snapshot
        contents must come back along with the write set.
        """
        recreated: List[Run] = []
        for call in plan:
            if call.name == "mmap":
                address, length = call.args[0], call.args[1]
                recreated.append((address // PAGE_SIZE, (address + length) // PAGE_SIZE))
            elif call.name == "brk":
                (new_brk,) = call.args
                # If the invocation shrank the heap, re-growing it back to
                # the snapshot break re-creates pages whose contents were
                # dropped; restore everything between the two breaks.
                if new_brk > brk_before_restore:
                    recreated.append(
                        (brk_before_restore // PAGE_SIZE, new_brk // PAGE_SIZE)
                    )
        return union_runs(recreated, ()) if recreated else ()
