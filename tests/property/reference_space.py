"""The per-page reference model of the simulated address space.

This is the address space as it was before page state went run-length: a
dict of :class:`Page` objects, each backed by a refcounted :class:`Frame`,
plus one Python set per tracking bit.  Every operation works one page at a
time: the write fault is one call per page, and the kernel-side write-back
one page at a time.  The run-length :class:`repro.mem.address_space.AddressSpace`
must equal it on every page, every tracking bit, every share count (the
frame refcount here), every handler call and every meter counter, bit for
bit; ``test_prop_memory.py`` drives twin spaces to check that.

Besides the per-page core it implements the run-level calls the snapshot
and restore paths make (``capture``, ``soft_dirty_runs``,
``resident_within``, ``kernel_write_range``, ``kernel_write_image``,
``kernel_drop_runs``, ``page_state``), each as a loop over single pages,
and the handle calls a runtime's request plan makes (``mapping_at``,
``write_mapped``, ``read_mapped``, ``touch_read_mapped``).  A handle here is
the :class:`Vma` itself, and every handle call first checks that it is the
very mapping a fresh lookup returns, so a plan that kept a handle past a
layout change fails loudly instead of writing through it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import PAGE_SIZE
from repro.errors import MappingError, SegmentationFault
from repro.mem.address_space import (
    DEFAULT_BRK_BASE,
    DEFAULT_MMAP_BASE,
    DEFAULT_STACK_TOP,
    MemoryMeter,
    PageState,
)
from repro.mem.image import PageImage, Run, Runs, runs_of_pages
from repro.mem.layout import MemoryLayout
from repro.mem.page import Protection, ZERO_CONTENT
from repro.mem.vma import Vma, VmaKind
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL


class Frame:
    """Physical backing of a page: payload bytes plus a reference count."""

    __slots__ = ("content", "refcount")

    def __init__(self, content: bytes = ZERO_CONTENT) -> None:
        self.content = content
        self.refcount = 1

    def share(self) -> "Frame":
        """Add a reference (used by copy-on-write fork)."""
        self.refcount += 1
        return self

    def release(self) -> None:
        """Drop a reference."""
        if self.refcount <= 0:
            raise ValueError("frame refcount underflow")
        self.refcount -= 1

    def copy(self) -> "Frame":
        """Return a private copy of this frame (CoW break)."""
        return Frame(self.content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame(len={len(self.content)}, refcount={self.refcount})"


@dataclass(slots=True)
class Page:
    """One process's mapping of a frame."""

    frame: Frame

    @property
    def content(self) -> bytes:
        """The page payload."""
        return self.frame.content


class ReferenceAddressSpace:
    """A simulated process address space with per-page state."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        *,
        mmap_base: int = DEFAULT_MMAP_BASE,
        brk_base: int = DEFAULT_BRK_BASE,
        stack_top: int = DEFAULT_STACK_TOP,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.meter = MemoryMeter()
        self._vmas: List[Vma] = []
        self._starts: List[int] = []
        self._pages: Dict[int, Page] = {}
        self._soft_dirty: Set[int] = set()
        self._cow: Set[int] = set()
        self._wp: Set[int] = set()
        self._tlb_cold: Set[int] = set()
        self._sd_tracking_armed = False
        self._mmap_next = mmap_base
        self._brk_base = brk_base
        self._brk = brk_base
        self._stack_next = stack_top
        self._wp_handler: Optional[Callable[[int], None]] = None
        self.layout_generation = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def vmas(self) -> Tuple[Vma, ...]:
        """The current mappings, sorted by start address."""
        return tuple(self._vmas)

    @property
    def brk(self) -> int:
        """Current program break."""
        return self._brk

    @property
    def brk_base(self) -> int:
        """Program-break base (bottom of the heap)."""
        return self._brk_base

    @property
    def total_mapped_pages(self) -> int:
        """Number of pages covered by all VMAs (mapped, not necessarily resident)."""
        return sum(v.num_pages for v in self._vmas)

    @property
    def resident_pages(self) -> int:
        """Number of pages with an allocated frame."""
        return len(self._pages)

    @property
    def soft_dirty_tracking_armed(self) -> bool:
        """True once ``clear_soft_dirty`` has been called at least once."""
        return self._sd_tracking_armed

    def soft_dirty_page_numbers(self) -> Set[int]:
        """The set of pages whose soft-dirty bit is currently set."""
        return set(self._soft_dirty)

    def resident_page_numbers(self) -> Set[int]:
        """The set of resident (frame-backed) page numbers."""
        return set(self._pages)

    def find_vma(self, address: int) -> Optional[Vma]:
        """Return the VMA containing ``address``, if any."""
        idx = bisect.bisect_right(self._starts, address) - 1
        if idx >= 0 and self._vmas[idx].contains(address):
            return self._vmas[idx]
        return None

    def vma_for_page(self, page_number: int) -> Optional[Vma]:
        """Return the VMA containing ``page_number``, if any."""
        return self.find_vma(page_number * PAGE_SIZE)

    def mapping_at(self, page_number: int) -> Optional[Vma]:
        """The handle of the mapping holding ``page_number``: its VMA."""
        return self.vma_for_page(page_number)

    def _check_handle(self, mapping: Optional[Vma], page_number: int) -> None:
        if mapping is not self.vma_for_page(page_number):
            raise AssertionError(
                f"stale mapping handle {mapping!r} for page {page_number:#x}"
            )

    def is_resident(self, page_number: int) -> bool:
        """True if ``page_number`` has an allocated frame."""
        return page_number in self._pages

    def is_soft_dirty(self, page_number: int) -> bool:
        """True if ``page_number``'s soft-dirty bit is set."""
        return page_number in self._soft_dirty

    def page_state(self, page_number: int) -> PageState:
        """Contents, tracking bits and frame refcount of one page."""
        page = self._pages.get(page_number)
        return PageState(
            content=page.content if page is not None else ZERO_CONTENT,
            resident=page is not None,
            soft_dirty=page_number in self._soft_dirty,
            cow=page_number in self._cow,
            write_protected=page_number in self._wp,
            tlb_cold=page_number in self._tlb_cold,
            shares=page.frame.refcount if page is not None else 0,
        )

    def soft_dirty_runs(self) -> Runs:
        """The soft-dirty pages as a maximal page run list."""
        return runs_of_pages(self._soft_dirty)

    def resident_within(self, runs: Sequence[Run]) -> Runs:
        """The resident pages of ``runs``."""
        return runs_of_pages(
            page for first, end in runs for page in range(first, end) if page in self._pages
        )

    def capture(self) -> PageImage:
        """Every resident page and its payload."""
        return PageImage(
            [(number, number + 1, self._pages[number].content) for number in sorted(self._pages)]
        )

    def page_content(self, page_number: int) -> bytes:
        """Return the payload of a page (zero content if not resident)."""
        page = self._pages.get(page_number)
        return page.content if page is not None else ZERO_CONTENT

    def layout(self) -> MemoryLayout:
        """The current memory layout, as fresh :class:`Vma` records.

        Every call builds new records, so no two layouts share one and a
        diff between them compares every pair.
        """
        records = tuple(
            Vma(start=v.start, end=v.end, prot=v.prot, kind=v.kind, name=v.name)
            for v in self._vmas
        )
        return MemoryLayout(records=records, brk=self._brk)

    def describe_maps(self) -> str:
        """Render the layout like ``/proc/<pid>/maps``."""
        return "\n".join(v.describe() for v in self._vmas)

    # ------------------------------------------------------------------
    # Mapping operations
    # ------------------------------------------------------------------

    def mmap(
        self,
        length: int,
        prot: Protection = Protection.rw(),
        *,
        kind: VmaKind = VmaKind.ANON,
        name: str = "",
        address: Optional[int] = None,
        populate: bool = False,
    ) -> Vma:
        """Create a new mapping of ``length`` bytes and return its VMA.

        ``length`` is rounded up to a whole number of pages.  If ``address``
        is given it must be page-aligned and not overlap an existing mapping.
        ``populate`` pre-faults every page (like ``MAP_POPULATE``) without
        charging fault costs — used for modelling already-initialised
        runtimes.
        """
        if length <= 0:
            raise MappingError("mmap length must be positive")
        num_pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        size = num_pages * PAGE_SIZE
        if address is None:
            start = self._mmap_next
            self._mmap_next += size + PAGE_SIZE  # guard gap
        else:
            if address % PAGE_SIZE:
                raise MappingError(f"mmap address {address:#x} is not page aligned")
            start = address
        end = start + size
        if self._overlaps_existing(start, end):
            raise MappingError(
                f"mmap range [{start:#x}, {end:#x}) overlaps an existing mapping"
            )
        vma = Vma(start=start, end=end, prot=prot, kind=kind, name=name)
        self._insert_vma(vma)
        if populate:
            for page_number in vma.pages():
                self._pages[page_number] = Page(Frame(ZERO_CONTENT))
                self._soft_dirty.add(page_number)
        return vma

    def map_stack(self, length: int, name: str = "stack") -> Vma:
        """Allocate a stack mapping growing down from the stack region."""
        num_pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        size = num_pages * PAGE_SIZE
        self._stack_next -= size + PAGE_SIZE
        return self.mmap(
            size,
            Protection.rw(),
            kind=VmaKind.STACK,
            name=name,
            address=self._stack_next + PAGE_SIZE,
        )

    def munmap(self, start: int, length: int) -> int:
        """Unmap ``[start, start+length)``; returns the number of pages dropped."""
        if start % PAGE_SIZE:
            raise MappingError(f"munmap address {start:#x} is not page aligned")
        if length <= 0:
            raise MappingError("munmap length must be positive")
        end = start + ((length + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        dropped = self._drop_pages(start // PAGE_SIZE, end // PAGE_SIZE)
        self._carve_range(start, end, replacement=None)
        return dropped

    def mprotect(self, start: int, length: int, prot: Protection) -> None:
        """Change protection of ``[start, start+length)``."""
        if start % PAGE_SIZE:
            raise MappingError(f"mprotect address {start:#x} is not page aligned")
        if length <= 0:
            raise MappingError("mprotect length must be positive")
        end = start + ((length + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        if not self._range_fully_mapped(start, end):
            raise MappingError(
                f"mprotect range [{start:#x}, {end:#x}) is not fully mapped"
            )
        self._carve_range(start, end, replacement=prot)

    def madvise_dontneed(self, start: int, length: int) -> int:
        """Discard page contents in the range (``MADV_DONTNEED``).

        The mapping stays; pages become non-resident and read as zeroes.
        Returns the number of pages dropped.
        """
        if start % PAGE_SIZE:
            raise MappingError(f"madvise address {start:#x} is not page aligned")
        if length <= 0:
            raise MappingError("madvise length must be positive")
        end = start + ((length + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        return self._drop_pages(start // PAGE_SIZE, end // PAGE_SIZE)

    def set_brk(self, new_brk: int) -> int:
        """Set the program break, growing or shrinking the heap mapping.

        Growing extends the read-write heap piece ending at the break, or
        maps a new one there; shrinking unmaps everything above the new
        break.
        """
        if new_brk < self._brk_base:
            raise MappingError(
                f"brk {new_brk:#x} below heap base {self._brk_base:#x}"
            )
        new_brk = ((new_brk + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        old_brk = self._brk
        if new_brk == old_brk:
            return self._brk
        if new_brk > old_brk:
            if self._overlaps_existing(old_brk, new_brk):
                raise MappingError(
                    f"brk {new_brk:#x} would grow the heap into an existing mapping"
                )
            top = self.find_vma(old_brk - 1)
            if (
                top is not None
                and top.kind is VmaKind.HEAP
                and top.end == old_brk
                and top.prot == Protection.rw()
            ):
                self._replace_vma(top, top.with_bounds(top.start, new_brk))
            else:
                self._insert_vma(
                    Vma(
                        start=old_brk,
                        end=new_brk,
                        prot=Protection.rw(),
                        kind=VmaKind.HEAP,
                        name="[heap]",
                    )
                )
        else:
            self._drop_pages(new_brk // PAGE_SIZE, old_brk // PAGE_SIZE)
            self._carve_range(new_brk, old_brk, replacement=None)
        self._brk = new_brk
        return self._brk

    def sbrk(self, delta: int) -> int:
        """Adjust the program break by ``delta`` bytes; returns the new break."""
        return self.set_brk(self._brk + delta)

    # ------------------------------------------------------------------
    # Memory access (the function's critical path)
    # ------------------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` into the page containing ``address``.

        The write is page-granular (the page's payload becomes ``data``);
        Groundhog's tracking and restore operate on whole pages, so
        byte-offsets within a page are not modelled.
        """
        self.write_range(address // PAGE_SIZE, 1, data)

    def write_page(self, page_number: int, data: bytes) -> None:
        """Write ``data`` as the payload of ``page_number`` (with fault costs)."""
        self.write_range(page_number, 1, data)

    def write_range(self, start_page: int, count: int, data: bytes) -> None:
        """Write ``data`` into ``count`` pages, one page fault at a time."""
        if count < 0:
            raise MappingError(f"cannot write a negative number of pages ({count})")
        for page_number in range(start_page, start_page + count):
            self._fault_on_write(page_number)
            self._pages[page_number].frame.content = data
        self.meter.charge(pages_written=count)

    def _fault_on_write(self, page_number: int) -> None:
        """One page's write fault, looked up and charged on its own."""
        vma = self.vma_for_page(page_number)
        if vma is None:
            raise SegmentationFault(page_number * PAGE_SIZE, access="write")
        if Protection.WRITE not in vma.prot:
            raise SegmentationFault(page_number * PAGE_SIZE, access="write")
        cm = self.cost_model
        page = self._pages.get(page_number)
        took_allocating_fault = False
        if page is None:
            page = Page(Frame(ZERO_CONTENT))
            self._pages[page_number] = page
            self.meter.charge(cm.minor_fault_seconds, minor_faults=1)
            took_allocating_fault = True
        else:
            if page_number in self._tlb_cold:
                self.meter.charge(cm.fork_first_touch_seconds, first_touch_faults=1)
                self._tlb_cold.discard(page_number)
            if page_number in self._cow:
                old_frame = page.frame
                old_frame.release()
                page.frame = old_frame.copy()
                self._cow.discard(page_number)
                self.meter.charge(cm.cow_fault_seconds, cow_faults=1)
                took_allocating_fault = True
        if page_number in self._wp:
            self.meter.charge(cm.uffd_fault_seconds, uffd_faults=1)
            self._wp.discard(page_number)
            if self._wp_handler is not None:
                self._wp_handler(page_number)
        if page_number not in self._soft_dirty:
            if self._sd_tracking_armed and not took_allocating_fault:
                self.meter.charge(cm.soft_dirty_fault_seconds, soft_dirty_faults=1)
            self._soft_dirty.add(page_number)

    def write_mapped(
        self, mapping: Optional[Vma], start_page: int, count: int, data: bytes
    ) -> None:
        """``write_range`` through a handle that must be current."""
        self._check_handle(mapping, start_page)
        self.write_range(start_page, count, data)

    def read_mapped(self, mapping: Optional[Vma], page_number: int) -> bytes:
        """``read_page`` through a handle that must be current."""
        self._check_handle(mapping, page_number)
        return self.read_page(page_number)

    def touch_read_mapped(
        self, mapping: Optional[Vma], start_page: int, count: int
    ) -> None:
        """``touch_read_range`` through a handle that must be current."""
        self._check_handle(mapping, start_page)
        self.touch_read_range(start_page, count)

    def read(self, address: int) -> bytes:
        """Read the payload of the page containing ``address``."""
        page_number = address // PAGE_SIZE
        return self.read_page(page_number)

    def read_page(self, page_number: int) -> bytes:
        """Read the payload of ``page_number`` (zeroes if not resident)."""
        vma = self.vma_for_page(page_number)
        if vma is None or Protection.READ not in vma.prot:
            raise SegmentationFault(page_number * PAGE_SIZE, access="read")
        self._fault_on_read(page_number)
        self.meter.charge(pages_read=1)
        page = self._pages.get(page_number)
        return page.content if page is not None else ZERO_CONTENT

    def touch_read_range(self, start_page: int, count: int) -> None:
        """Read-touch ``count`` pages starting at ``start_page``.

        This is how the §5.2 microbenchmark's "read one word from every
        mapped page" step is modelled.  For warm pages it is free; pages that
        are TLB-cold (freshly forked child) or write-protected pay their
        respective first-access costs.
        """
        if count <= 0:
            return
        end_page = start_page + count
        cold = sorted(p for p in self._tlb_cold if start_page <= p < end_page)
        for page_number in cold:
            self._fault_on_read(page_number)
        self.meter.charge(pages_read=count)

    # ------------------------------------------------------------------
    # Tracking control (used by Groundhog via procfs)
    # ------------------------------------------------------------------

    def clear_soft_dirty(self) -> int:
        """Clear every soft-dirty bit and arm tracking; returns bits cleared.

        Equivalent to writing ``4`` to ``/proc/<pid>/clear_refs``.  After this
        call the first write to each page pays a small write-protect fault
        (the paper's in-function overhead) and re-sets its bit.
        """
        cleared = len(self._soft_dirty)
        self._soft_dirty.clear()
        self._sd_tracking_armed = True
        return cleared

    def arm_write_protection(self, handler: Optional[Callable[[int], None]] = None) -> int:
        """Write-protect every resident page (userfaultfd-WP style).

        ``handler`` is invoked with the page number on each write fault.  It
        runs in the middle of a write, so it may record the page but must
        not change mappings or tracking state.  Returns the number of pages
        protected.
        """
        self._wp = set(self._pages)
        self._wp_handler = handler
        return len(self._wp)

    def disarm_write_protection(self) -> None:
        """Remove all userfaultfd-style write protection."""
        self._wp.clear()
        self._wp_handler = None

    # ------------------------------------------------------------------
    # Kernel-side access (no function-visible faults): used by ptrace /
    # /proc/<pid>/mem during snapshot and restore.
    # ------------------------------------------------------------------

    def kernel_read_page(self, page_number: int) -> bytes:
        """Read a page the way the manager does via ``/proc/<pid>/mem``."""
        page = self._pages.get(page_number)
        return page.content if page is not None else ZERO_CONTENT

    def kernel_write_page(self, page_number: int, data: bytes) -> None:
        """One page's kernel-side write, with its own VMA lookup."""
        vma = self.vma_for_page(page_number)
        if vma is None:
            raise SegmentationFault(page_number * PAGE_SIZE, access="kernel-write")
        page = self._pages.get(page_number)
        if page is None:
            page = Page(Frame(data))
            self._pages[page_number] = page
        else:
            if page_number in self._cow:
                page.frame.release()
                page.frame = Frame(data)
                self._cow.discard(page_number)
            page.frame.content = data
        self._soft_dirty.add(page_number)

    def kernel_write_range(self, start_page: int, count: int, data: bytes) -> None:
        """``kernel_write_page`` on each of ``count`` pages."""
        if count < 0:
            raise MappingError(f"cannot write a negative number of pages ({count})")
        for page_number in range(start_page, start_page + count):
            self.kernel_write_page(page_number, data)

    def kernel_write_image(self, image: PageImage, runs: Sequence[Run]) -> None:
        """``kernel_write_page`` of the image's payload on each page of ``runs``."""
        for first, end in runs:
            for page_number in range(first, end):
                self.kernel_write_page(page_number, image.content(page_number))

    def kernel_drop_runs(self, runs: Sequence[Run]) -> int:
        """Drop the resident pages of ``runs`` one at a time."""
        dropped = 0
        for first, end in runs:
            for page_number in range(first, end):
                dropped += page_number in self._pages
                self._forget_page(page_number)
        return dropped

    def kernel_drop_page(self, page_number: int) -> None:
        """Drop a resident page from the kernel side (restore of never-mapped data)."""
        self._forget_page(page_number)

    # ------------------------------------------------------------------
    # fork()
    # ------------------------------------------------------------------

    def fork(self) -> "ReferenceAddressSpace":
        """Return a copy-on-write duplicate of this address space.

        Both parent and child see all currently resident pages marked CoW;
        whichever side writes first pays the data-copying fault, exactly as
        with ``fork(2)``.  The child additionally has a cold TLB: its first
        access to every page pays a small first-touch cost (§5.2.3).
        """
        child = ReferenceAddressSpace(self.cost_model)
        child._vmas = list(self._vmas)
        child._starts = list(self._starts)
        child._brk_base = self._brk_base
        child._brk = self._brk
        child._mmap_next = self._mmap_next
        child._stack_next = self._stack_next
        child._sd_tracking_armed = self._sd_tracking_armed
        child._soft_dirty = set(self._soft_dirty)
        for page_number, page in self._pages.items():
            child._pages[page_number] = Page(page.frame.share())
        child._cow = set(child._pages)
        child._tlb_cold = set(child._pages)
        self._cow.update(self._pages.keys())
        return child

    # ------------------------------------------------------------------
    # Fault handling internals
    # ------------------------------------------------------------------

    def _fault_on_read(self, page_number: int) -> None:
        if page_number in self._tlb_cold:
            self.meter.charge(
                self.cost_model.fork_first_touch_seconds, first_touch_faults=1
            )
            self._tlb_cold.discard(page_number)

    # ------------------------------------------------------------------
    # VMA bookkeeping internals
    # ------------------------------------------------------------------

    def _overlaps_existing(self, start: int, end: int) -> bool:
        idx = bisect.bisect_left(self._starts, end)
        for vma in self._vmas[max(0, idx - 1) : idx + 1]:
            if vma.overlaps(start, end):
                return True
        return any(v.overlaps(start, end) for v in self._vmas)

    def _insert_vma(self, vma: Vma) -> None:
        idx = bisect.bisect_left(self._starts, vma.start)
        self._vmas.insert(idx, vma)
        self._starts.insert(idx, vma.start)
        self.layout_generation += 1

    def _replace_vma(self, old: Vma, new: Vma) -> None:
        idx = self._vmas.index(old)
        self._vmas[idx] = new
        self._starts[idx] = new.start
        self.layout_generation += 1

    def _range_fully_mapped(self, start: int, end: int) -> bool:
        cursor = start
        for vma in self._vmas:
            if vma.end <= cursor:
                continue
            if vma.start > cursor:
                return False
            cursor = min(vma.end, end)
            if cursor >= end:
                return True
        return cursor >= end

    def _carve_range(
        self, start: int, end: int, replacement: Optional[Protection]
    ) -> None:
        """Remove (``replacement is None``) or re-protect a range, splitting VMAs."""
        new_vmas: List[Vma] = []
        for vma in self._vmas:
            if not vma.overlaps(start, end):
                new_vmas.append(vma)
                continue
            if vma.start < start:
                new_vmas.append(vma.with_bounds(vma.start, start))
            overlap_start = max(vma.start, start)
            overlap_end = min(vma.end, end)
            if replacement is not None:
                new_vmas.append(
                    vma.with_bounds(overlap_start, overlap_end).with_prot(replacement)
                )
            if vma.end > end:
                new_vmas.append(vma.with_bounds(end, vma.end))
        new_vmas.sort(key=lambda v: v.start)
        self._vmas = new_vmas
        self._starts = [v.start for v in new_vmas]
        self.layout_generation += 1

    def _drop_pages(self, first_page: int, end_page: int) -> int:
        dropped = 0
        if end_page - first_page < len(self._pages):
            candidates = [
                p for p in range(first_page, end_page) if p in self._pages
            ]
        else:
            candidates = [p for p in self._pages if first_page <= p < end_page]
        for page_number in candidates:
            self._forget_page(page_number)
            dropped += 1
        return dropped

    def _forget_page(self, page_number: int) -> None:
        page = self._pages.pop(page_number, None)
        if page is not None:
            page.frame.release()
        self._soft_dirty.discard(page_number)
        self._cow.discard(page_number)
        self._wp.discard(page_number)
        self._tlb_cold.discard(page_number)
