"""Memory-layout snapshots and diffing.

During restoration Groundhog compares the function process's current memory
layout (from ``/proc/<pid>/maps``) against the layout recorded in the
snapshot, and reverses every difference by injecting syscalls: added regions
are ``munmap``-ed, removed regions are ``mmap``-ed back, grown regions are
trimmed, shrunk regions are re-extended, protection changes are undone with
``mprotect`` and the program break is restored with ``brk`` (§4.4).

This module provides the immutable :class:`MemoryLayout` record and the
:func:`diff_layouts` function that computes the list of differences the
restorer must reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.mem.vma import Vma


@dataclass(frozen=True)
class MemoryLayout:
    """An immutable snapshot of a process's memory layout.

    ``records`` are ascending by start and disjoint (``maps`` order).  From
    :meth:`~repro.mem.address_space.AddressSpace.layout` they are the
    space's own immutable :class:`Vma` objects, which it only ever
    replaces, so layouts share every mapping that did not change between them.
    """

    records: Tuple[Vma, ...]
    brk: int

    @property
    def num_vmas(self) -> int:
        """Number of mappings in the layout."""
        return len(self.records)

    @property
    def total_pages(self) -> int:
        """Total mapped pages across all records."""
        return sum(r.num_pages for r in self.records)

    def find(self, address: int) -> Optional[Vma]:
        """Return the record containing ``address``, if any."""
        for record in self.records:
            if record.start <= address < record.end:
                return record
        return None


class RegionChange(NamedTuple):
    """A matched region whose bounds or protection differ between layouts."""

    snapshot: Vma
    current: Vma

    @property
    def grew(self) -> bool:
        """True if the region is larger now than in the snapshot."""
        return self.current.length > self.snapshot.length

    @property
    def shrank(self) -> bool:
        """True if the region is smaller now than in the snapshot."""
        return self.current.length < self.snapshot.length

    @property
    def prot_changed(self) -> bool:
        """True if the protection differs."""
        return self.current.prot != self.snapshot.prot

    @property
    def page_delta(self) -> int:
        """Pages gained (positive) or lost (negative) relative to the snapshot."""
        return self.current.num_pages - self.snapshot.num_pages


class LayoutDiff(NamedTuple):
    """All differences between a snapshot layout and the current layout.

    ``added`` are regions present now but not in the snapshot (must be
    unmapped); ``removed`` are regions present in the snapshot but gone now
    (must be mapped back and their contents restored); ``changed`` are
    matched regions that grew, shrank, or changed protection; ``brk_changed``
    indicates the program break moved.  Every restore diffs once, so this
    and :class:`RegionChange` are named tuples.
    """

    added: Tuple[Vma, ...]
    removed: Tuple[Vma, ...]
    changed: Tuple[RegionChange, ...]
    snapshot_brk: int
    current_brk: int
    compared_vmas: int

    @property
    def brk_changed(self) -> bool:
        """True if the program break differs from the snapshot."""
        return self.snapshot_brk != self.current_brk

    @property
    def is_empty(self) -> bool:
        """True when the layouts are identical (nothing to reverse)."""
        return (
            not self.added
            and not self.removed
            and not self.changed
            and not self.brk_changed
        )

    @property
    def num_operations(self) -> int:
        """Rough count of syscalls needed to reverse the differences."""
        ops = len(self.added) + len(self.removed)
        for change in self.changed:
            if change.grew or change.shrank:
                ops += 1
            if change.prot_changed:
                ops += 1
        if self.brk_changed:
            ops += 1
        return ops


def diff_layouts(snapshot: MemoryLayout, current: MemoryLayout) -> LayoutDiff:
    """Compute the differences between a snapshot layout and the current one.

    The result describes what must be *reversed* to take ``current`` back to
    ``snapshot``.  Regions are matched by start and name, as Groundhog
    correlates maps lines; a matched pair whose end or protection differs
    is ``changed``.  One merge walk over the two sorted record tuples finds
    every difference in start order, passing over shared records.
    """
    old_records, new_records = snapshot.records, current.records
    added: List[Vma] = []
    removed: List[Vma] = []
    changed: List[RegionChange] = []
    i = j = 0
    old_count, new_count = len(old_records), len(new_records)
    while i < old_count and j < new_count:
        old, new = old_records[i], new_records[j]
        if old is new:
            i += 1
            j += 1
        elif old.start == new.start:
            if old.name != new.name:
                removed.append(old)
                added.append(new)
            elif old.end != new.end or old.prot != new.prot:
                changed.append(RegionChange(snapshot=old, current=new))
            i += 1
            j += 1
        elif old.start < new.start:
            removed.append(old)
            i += 1
        else:
            added.append(new)
            j += 1
    removed.extend(old_records[i:])
    added.extend(new_records[j:])
    return LayoutDiff(
        added=tuple(added),
        removed=tuple(removed),
        changed=tuple(changed),
        snapshot_brk=snapshot.brk,
        current_brk=current.brk,
        compared_vmas=old_count + new_count,
    )
