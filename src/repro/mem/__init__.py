"""Simulated virtual-memory substrate.

This package models the pieces of Linux memory management that Groundhog's
snapshot/restore mechanism depends on: page-granular mappings (VMAs), lazy
allocation, copy-on-write sharing, soft-dirty tracking, the ``/proc`` pagemap
view, and memory-layout diffing.  Page state is run-length: per-VMA bitmaps
for the tracking bits and sorted payload runs, with :class:`PageImage` as the
run image snapshots store and restores write back.
"""

from repro.mem.page import Protection
from repro.mem.vma import Vma, VmaKind
from repro.mem.image import PageImage
from repro.mem.address_space import AddressSpace, MemoryMeter, PageState
from repro.mem.pagemap import PagemapEntry, PagemapView
from repro.mem.layout import LayoutDiff, MemoryLayout, diff_layouts

__all__ = [
    "Protection",
    "Vma",
    "VmaKind",
    "PageImage",
    "AddressSpace",
    "MemoryMeter",
    "PageState",
    "PagemapEntry",
    "PagemapView",
    "MemoryLayout",
    "LayoutDiff",
    "diff_layouts",
]
