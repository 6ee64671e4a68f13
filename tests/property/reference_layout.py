"""The dict-based memory-layout diff, kept as the reference for the merge walk.

This is :func:`repro.mem.layout.diff_layouts` as it was before it became
one merge walk over two start-sorted record tuples: both layouts are
indexed by ``(start, name)`` in a dict, every key is looked up in the other
index, and the three result lists are sorted by start.  It compares every
record by value and never by identity, so it does not depend on the
address space sharing records between layouts.  ``test_prop_layout.py``
checks that the shipped diff returns the same :class:`LayoutDiff`, field
for field and in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mem.layout import LayoutDiff, MemoryLayout, RegionChange
from repro.mem.vma import Vma


def _by_key(layout: MemoryLayout) -> Dict[Tuple[int, str], Vma]:
    """Index a layout's records by ``(start, name)``, the region identity."""
    return {(record.start, record.name): record for record in layout.records}


def reference_diff_layouts(snapshot: MemoryLayout, current: MemoryLayout) -> LayoutDiff:
    """What must be reversed to take ``current`` back to ``snapshot``."""
    snap_index = _by_key(snapshot)
    curr_index = _by_key(current)

    added: List[Vma] = []
    removed: List[Vma] = []
    changed: List[RegionChange] = []

    for key, record in curr_index.items():
        if key not in snap_index:
            added.append(record)
    for key, record in snap_index.items():
        if key not in curr_index:
            removed.append(record)
    for key, snap_record in snap_index.items():
        curr_record = curr_index.get(key)
        if curr_record is None:
            continue
        if curr_record.end != snap_record.end or curr_record.prot != snap_record.prot:
            changed.append(RegionChange(snapshot=snap_record, current=curr_record))

    added.sort(key=lambda r: r.start)
    removed.sort(key=lambda r: r.start)
    changed.sort(key=lambda c: c.snapshot.start)
    return LayoutDiff(
        added=tuple(added),
        removed=tuple(removed),
        changed=tuple(changed),
        snapshot_brk=snapshot.brk,
        current_brk=current.brk,
        compared_vmas=len(snap_index) + len(curr_index),
    )
