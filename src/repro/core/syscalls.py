"""Building the syscall plan that reverses memory-layout changes (§4.4).

Once the restorer has diffed the snapshot layout against the current layout
it must undo every difference *inside the function process*, which Groundhog
does by injecting syscalls with ptrace:

* regions that appeared during the invocation are ``munmap``-ed,
* regions that disappeared are ``mmap``-ed back at their original address
  (their contents are restored separately from the snapshot),
* regions that grew are trimmed and regions that shrank are re-extended,
* protection changes are reverted with ``mprotect``,
* the program break is restored with ``brk`` (which also takes care of any
  heap growth or shrinkage), and
* pages that became resident inside still-mapped regions without being part
  of the snapshot are dropped with ``madvise(MADV_DONTNEED)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.config import PAGE_SIZE
from repro.mem.image import Run
from repro.mem.layout import LayoutDiff
from repro.mem.vma import Vma, VmaKind
from repro.proc.ptrace import InjectedSyscall


def _is_heap(record: Vma) -> bool:
    return record.kind is VmaKind.HEAP or record.name == "[heap]"


def build_restore_plan(diff: LayoutDiff) -> List[InjectedSyscall]:
    """Translate a :class:`LayoutDiff` into an injectable syscall sequence.

    Heap bounds are restored exclusively through ``brk`` so the plan never
    issues a conflicting ``mmap``/``munmap`` on the heap region.
    """
    plan: List[InjectedSyscall] = []

    # Remove regions the invocation added.
    for record in diff.added:
        if _is_heap(record):
            continue
        plan.append(InjectedSyscall("munmap", (record.start, record.length)))

    # Re-create regions the invocation removed.
    for record in diff.removed:
        if _is_heap(record):
            continue
        plan.append(
            InjectedSyscall(
                "mmap", (record.start, record.length, record.prot, record.kind, record.name)
            )
        )

    # Reverse growth, shrinkage and protection changes of matched regions.
    for change in diff.changed:
        snap, curr = change.snapshot, change.current
        if _is_heap(snap):
            # Heap bounds are handled by brk below; protection changes on the
            # heap are still reverted explicitly.
            if change.prot_changed:
                plan.append(
                    InjectedSyscall("mprotect", (snap.start, snap.length, snap.prot))
                )
            continue
        if change.grew:
            plan.append(
                InjectedSyscall("munmap", (snap.end, curr.end - snap.end))
            )
        elif change.shrank:
            plan.append(
                InjectedSyscall(
                    "mmap", (curr.end, snap.end - curr.end, snap.prot, snap.kind, snap.name)
                )
            )
        if change.prot_changed:
            plan.append(
                InjectedSyscall("mprotect", (snap.start, snap.length, snap.prot))
            )

    # Restore the program break last so heap pages beyond it are dropped.
    if diff.brk_changed:
        plan.append(InjectedSyscall("brk", (diff.snapshot_brk,)))

    return plan


def madvise_calls_for_runs(runs: Sequence[Run]) -> List[InjectedSyscall]:
    """One ``madvise`` call per run of stray resident pages.

    Pages that became resident during the invocation but are not part of the
    snapshot (and live in regions that still exist) are discarded so the
    process's resident set matches the snapshot exactly.  Each maximal run
    of contiguous pages is one ``madvise``.
    """
    return [
        InjectedSyscall("madvise_dontneed", (first * PAGE_SIZE, (end - first) * PAGE_SIZE))
        for first, end in runs
    ]


def summarize_plan(plan: Iterable[InjectedSyscall]) -> Dict[str, int]:
    """Count plan entries per syscall name (used in reports and tests)."""
    summary: Dict[str, int] = {}
    for call in plan:
        summary[call.name] = summary.get(call.name, 0) + 1
    return summary
