"""The simulated address space: mappings, faults, tracking, copy-on-write.

This module is the substrate Groundhog is written against.  It provides the
behaviours the paper's mechanism relies on:

* page-granular mappings organised into VMAs (``mmap``/``munmap``/``brk``/
  ``mprotect``/``madvise``),
* lazy allocation with minor faults on first touch,
* the **soft-dirty bit**: once armed (after a ``clear_refs``), the first
  write to each page takes a small write-protect fault and marks the page
  dirty — Groundhog's only in-function overhead,
* copy-on-write sharing after ``fork`` with data-copying faults — the cost
  model of the FORK baseline,
* userfaultfd-style write protection for the tracking ablation,
* a :class:`MemoryMeter` that accounts every fault and its cost so the
  critical-path overhead of each isolation mechanism is *derived from what
  the function actually did to memory*, not assumed.

Page state is kept per VMA and run-length: each page's resident,
soft-dirty, copy-on-write, write-protect and TLB-cold bits live in five
Python-int bitmaps (bit ``i`` is the VMA's page ``i``), and its payload in
sorted ``(first, end, payload)`` content runs (see :mod:`repro.mem.image`).
Writes, write-back, ``clear_refs``, ``fork``, unmapping and the pagemap scan
therefore cost O(runs) plus mask algebra rather than one step per page.  A
run of identical faults is charged to the meter exactly as that sequence of
per-fault float adds would charge it, bit for bit, but a long run of one
fault kind costs O(binades crossed) rather than one add per page
(:func:`_repeat_add`).

Durations come from :class:`repro.sim.costs.CostModel`; semantics (which
bytes are where) are always real so tests can check isolation on content.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.config import PAGE_SIZE
from repro.errors import MappingError, SegmentationFault
from repro.mem.image import (
    ContentRun,
    PageImage,
    Run,
    Runs,
    content_at,
    mask_runs,
    page_numbers,
    put_content,
)
from repro.mem.page import Protection, ZERO_CONTENT
from repro.mem.vma import Vma, VmaKind
from repro.mem.layout import MemoryLayout
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL

#: Default base of the mmap allocation area (grows upward).
DEFAULT_MMAP_BASE = 0x7F00_0000_0000

#: Default location of the program break (heap base).
DEFAULT_BRK_BASE = 0x0000_0200_0000

#: Default stack top; stacks are allocated downward from here.
DEFAULT_STACK_TOP = 0x7FFF_F000_0000


@dataclass
class MeterSnapshot:
    """Immutable snapshot of a :class:`MemoryMeter` for delta computation.

    Unlike the records a request builds once and rarely reads (the restore
    records, :class:`~repro.kernel.faults.FaultRecord`), this stays a
    dataclass: every request on every workload reads a checkpoint field by
    field in :meth:`MemoryMeter.since`, and on Python 3.11 a named-tuple
    field read costs more than an instance attribute read.
    """

    cost_seconds: float = 0.0
    minor_faults: int = 0
    soft_dirty_faults: int = 0
    cow_faults: int = 0
    uffd_faults: int = 0
    first_touch_faults: int = 0
    pages_written: int = 0
    pages_read: int = 0


class MemoryMeter:
    """Accumulates fault counts and critical-path memory costs.

    The counters are mutable slots the fault paths add to in place; a run
    of faults is charged exactly as its sequence of per-fault adds would
    charge it (:func:`_repeat_add`).  :attr:`counters`, :meth:`checkpoint`
    and :meth:`since` hand out :class:`MeterSnapshot` copies.
    """

    __slots__ = (
        "cost_seconds",
        "minor_faults",
        "soft_dirty_faults",
        "cow_faults",
        "uffd_faults",
        "first_touch_faults",
        "pages_written",
        "pages_read",
    )

    def __init__(self) -> None:
        self.cost_seconds = 0.0
        self.minor_faults = 0
        self.soft_dirty_faults = 0
        self.cow_faults = 0
        self.uffd_faults = 0
        self.first_touch_faults = 0
        self.pages_written = 0
        self.pages_read = 0

    @property
    def counters(self) -> MeterSnapshot:
        """Current cumulative counters."""
        return MeterSnapshot(
            self.cost_seconds,
            self.minor_faults,
            self.soft_dirty_faults,
            self.cow_faults,
            self.uffd_faults,
            self.first_touch_faults,
            self.pages_written,
            self.pages_read,
        )

    def charge(
        self,
        cost_seconds: float = 0.0,
        *,
        minor_faults: int = 0,
        soft_dirty_faults: int = 0,
        cow_faults: int = 0,
        uffd_faults: int = 0,
        first_touch_faults: int = 0,
        pages_written: int = 0,
        pages_read: int = 0,
    ) -> None:
        """Add cost and counters to the meter."""
        self.cost_seconds += cost_seconds
        self.minor_faults += minor_faults
        self.soft_dirty_faults += soft_dirty_faults
        self.cow_faults += cow_faults
        self.uffd_faults += uffd_faults
        self.first_touch_faults += first_touch_faults
        self.pages_written += pages_written
        self.pages_read += pages_read

    def checkpoint(self) -> MeterSnapshot:
        """Return a snapshot to later compute deltas against."""
        return self.counters

    def since(self, checkpoint: MeterSnapshot) -> MeterSnapshot:
        """Return counters accumulated since ``checkpoint``, field by field."""
        return MeterSnapshot(
            self.cost_seconds - checkpoint.cost_seconds,
            self.minor_faults - checkpoint.minor_faults,
            self.soft_dirty_faults - checkpoint.soft_dirty_faults,
            self.cow_faults - checkpoint.cow_faults,
            self.uffd_faults - checkpoint.uffd_faults,
            self.first_touch_faults - checkpoint.first_touch_faults,
            self.pages_written - checkpoint.pages_written,
            self.pages_read - checkpoint.pages_read,
        )


class PageState(NamedTuple):
    """Everything the address space records about one page."""

    content: bytes
    resident: bool
    soft_dirty: bool
    cow: bool
    write_protected: bool
    tlb_cold: bool
    #: Address spaces mapping the page's frame, itself included (0 if absent).
    shares: int


#: Runs of fewer adds than this take the plain loop: the closed form costs
#: about as much as 50 to 80 loop adds (timed on Python 3.11), and one add
#: per page of 600 about eight times as much as the closed form.
CLOSED_FORM_MIN_ADDS = 64

#: The smallest positive normal float: below it the ulp no longer follows
#: the binade, so the closed form takes single adds there.
_MIN_NORMAL = 2.0 ** -1022


def _repeat_add(total: float, steps: Sequence[float], times: int) -> float:
    """The float ``total`` after adding ``steps`` in order, ``times`` over.

    Float addition is not associative, so a run of identical faults is
    charged as exactly the sequence of adds a page-by-page loop makes:
    the result is bit for bit that loop's.  A run of at least
    :data:`CLOSED_FORM_MIN_ADDS` adds of one step is computed in closed
    form (:func:`_repeat_step`) when the step is positive and the total
    non-negative, both finite (every fault cost and meter total).  Shorter
    runs, and stretches whose pages each take several faults (a forked
    child's first touch plus its copy fault, a userfaultfd fault plus a
    soft-dirty one), take the loop.
    """
    if len(steps) == 1:
        step = steps[0]
        if (
            times >= CLOSED_FORM_MIN_ADDS
            and 0.0 < step < math.inf
            and 0.0 <= total < math.inf
        ):
            return _repeat_step(total, step, times)
        for _ in range(times):
            total += step
    elif steps:
        for _ in range(times):
            for step in steps:
                total += step
    return total


def _repeat_step(total: float, step: float, times: int) -> float:
    """``total`` after ``times`` rounded adds of ``step``, in closed form.

    ``step`` is positive and ``total`` non-negative, both finite.

    While ``total`` stays in one binade ``[2**(e-1), 2**e)`` it is a whole
    number ``k`` of ulps ``u = 2**(e-53)``, and the exact sum ``k*u + step``
    rounds to ``(k + round(step / u)) * u``: every add moves the total by
    the same whole number of ulps.  ``math.frexp`` gives the binade and
    ``float.as_integer_ratio`` gives ``step`` exactly, so the adds that fit
    below the binade's top are one integer multiply.  Two cases take one
    real float add instead and then look again: a step whose remainder is
    exactly half an ulp (a tie, rounded to the even neighbour, so its
    direction depends on the total's last bit) and the add that crosses
    into the next binade.  A step below half an ulp changes nothing.  A
    zero or subnormal total, and one in the top binade (whose crossing
    overflows), take single adds too.
    """
    numerator, denominator = step.as_integer_ratio()
    while times:
        mantissa, exponent = math.frexp(total)
        if total < _MIN_NORMAL or exponent > 1023:
            # Below the normal range, or in the top binade, whose crossing
            # overflows: one add.
            total += step
            times -= 1
            continue
        # total == ulps * 2**(exponent - 53); step / ulp == whole + rest / den.
        ulps = int(math.ldexp(mantissa, 53))
        shift = 53 - exponent
        if shift >= 0:
            num, den = numerator << shift, denominator
        else:
            num, den = numerator, denominator << -shift
        whole, rest = divmod(num, den)
        if rest << 1 == den:
            # A tie: rounds to the even neighbour.
            total += step
            times -= 1
            continue
        move = whole + (rest << 1 > den)
        if not move:
            return total
        # Adds that keep the exact sum below the binade's top, 2**53 ulps.
        room = ((1 << 53) - ulps) * den - num
        fit = (room - 1) // (move * den) + 1 if room > 0 else 0
        if fit >= times:
            return math.ldexp(ulps + times * move, exponent - 53)
        if fit:
            total = math.ldexp(ulps + fit * move, exponent - 53)
            times -= fit
        # The add that crosses into the next binade.
        total += step
        times -= 1
    return total


class _ShareGroup:
    """Frames one ``fork`` left shared copy-on-write between address spaces.

    A frame is identified by its group and page number.  ``counts`` holds,
    as sorted ``(first, end, count)`` runs, how many address spaces map each
    frame; a space that stops sharing a page (a CoW write, a write-back, an
    unmap) takes one off its count.  The runs follow the distinct write
    ranges, not the number of forks that share the group.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: List[Tuple[int, int, int]] = []

    def count(self, page: int) -> int:
        """Address spaces mapping this group's frame for ``page``."""
        counts = self.counts
        index = bisect.bisect_left(counts, (page + 1,))
        if index and counts[index - 1][1] > page:
            return counts[index - 1][2]
        return 0

    def add(self, first: int, end: int, delta: int) -> None:
        """Add ``delta`` to the counts of pages ``[first, end)``."""
        bounds = sorted({first, end}.union(*((a, b) for a, b, _ in self.counts)))
        counts: List[Tuple[int, int, int]] = []
        for a, b in zip(bounds, bounds[1:]):
            count = self.count(a) + (delta if first <= a < end else 0)
            if count < 0:
                raise ValueError("share count underflow")
            if not count:
                continue
            if counts and counts[-1][1] == a and counts[-1][2] == count:
                counts[-1] = (counts[-1][0], b, count)
            else:
                counts.append((a, b, count))
        self.counts = counts


#: Read-write protection, the heap's (a module constant: ``Protection.rw()``
#: is a call).
_RW = Protection.rw()

#: ``(readable, writable)`` of each of the eight :class:`Protection` values,
#: indexed by its bits: a table read instead of two ``Flag`` membership tests.
_ACCESS: Tuple[Tuple[bool, bool], ...] = tuple(
    (bool(bits & Protection.READ.value), bool(bits & Protection.WRITE.value))
    for bits in range(8)
)


class _Area:
    """One VMA and the state of its pages.

    Bit ``i`` of each mask is page ``first + i``.  Every page with a state
    bit is resident.  ``runs`` holds the non-zero payloads as sorted content
    runs of absolute page numbers.  ``shared`` pairs each share group the
    VMA's copy-on-write pages map with the mask of those pages; the masks
    are disjoint and together equal ``cow``, and every other resident page
    has a private frame.

    An area is also the handle :meth:`AddressSpace.mapping_at` hands out.
    ``live`` turns false when an ``munmap`` or ``mprotect`` replaces the
    area; until then ``first`` never changes and only a ``brk`` resize moves
    ``end``.  ``previous`` is the record the area had before its last
    resize.
    """

    __slots__ = (
        "vma",
        "previous",
        "live",
        "first",
        "end",
        "readable",
        "writable",
        "resident",
        "soft_dirty",
        "cow",
        "wp",
        "tlb_cold",
        "runs",
        "shared",
    )

    def __init__(self, vma: Vma) -> None:
        self.vma = vma
        self.previous: Optional[Vma] = None
        self.live = True
        self.first = vma.start // PAGE_SIZE
        self.end = vma.end // PAGE_SIZE
        self.readable, self.writable = _ACCESS[vma.prot._value_]
        self.resident = 0
        self.soft_dirty = 0
        self.cow = 0
        self.wp = 0
        self.tlb_cold = 0
        self.runs: List[ContentRun] = []
        self.shared: List[Tuple[_ShareGroup, int]] = []

    def holds(self, page: int) -> bool:
        """True while this area is a valid handle for ``page``: live, and holding it."""
        return self.live and self.first <= page < self.end

    def piece(self, vma: Vma) -> "_Area":
        """The state of the pages ``vma`` covers (it lies inside this area)."""
        area = _Area(vma)
        shift = area.first - self.first
        keep = (1 << (area.end - area.first)) - 1
        area.resident = (self.resident >> shift) & keep
        area.soft_dirty = (self.soft_dirty >> shift) & keep
        area.cow = (self.cow >> shift) & keep
        area.wp = (self.wp >> shift) & keep
        area.tlb_cold = (self.tlb_cold >> shift) & keep
        area.runs = [
            (max(a, area.first), min(b, area.end), payload)
            for a, b, payload in self.runs
            if a < area.end and b > area.first
        ]
        for group, mask in self.shared:
            mask = (mask >> shift) & keep
            if mask:
                area.shared.append((group, mask))
        return area


class AddressSpace:
    """A simulated process address space."""

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.meter = MemoryMeter()
        self._areas: List[_Area] = []
        self._starts: List[int] = []
        self._sd_tracking_armed = False
        self._mmap_next = DEFAULT_MMAP_BASE
        self._brk = DEFAULT_BRK_BASE
        self._stack_next = DEFAULT_STACK_TOP
        self._wp_handler: Optional[Callable[[int], None]] = None
        #: Pages the mappings cover, kept where ``layout_generation`` moves.
        self._mapped_pages = 0
        #: Bumped whenever the mapping list or a mapping's bounds change
        #: (``mmap``, ``munmap``, ``mprotect``, ``brk``).  The layout
        #: :meth:`layout` returns stays valid while this number is
        #: unchanged.  A handle from :meth:`mapping_at` lives longer: it
        #: outlives every edit that leaves its own mapping in place.
        self.layout_generation = 0
        self._layout = MemoryLayout((), DEFAULT_BRK_BASE)
        self._layout_built_at = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def vmas(self) -> Tuple[Vma, ...]:
        """The current mappings, sorted by start address."""
        return self.layout().records

    @property
    def brk(self) -> int:
        """Current program break."""
        return self._brk

    @property
    def brk_base(self) -> int:
        """Program-break base (bottom of the heap)."""
        return DEFAULT_BRK_BASE

    @property
    def total_mapped_pages(self) -> int:
        """Number of pages covered by all VMAs (mapped, not necessarily resident).

        A count kept by the three mapping edits that move
        :attr:`layout_generation`, so reading it does not walk the VMAs.
        """
        return self._mapped_pages

    def soft_dirty_page_numbers(self) -> Set[int]:
        """The set of pages whose soft-dirty bit is currently set."""
        return set(page_numbers(self.soft_dirty_runs()))

    def soft_dirty_runs(self) -> Runs:
        """The soft-dirty pages as a maximal page run list."""
        out: List[Run] = []
        for area in self._areas:
            if area.soft_dirty:
                mask_runs(area.soft_dirty, area.first, out)
        return tuple(out)

    def resident_within(self, runs: Sequence[Run]) -> Runs:
        """The resident pages of the ascending ``runs``, as a maximal run list."""
        out: List[Run] = []
        for first, end in runs:
            for area, span in self._spans(first, end):
                mask_runs(area.resident & span, area.first, out)
        return tuple(out)

    def capture(self) -> PageImage:
        """Every resident page and its payload, as a :class:`PageImage`."""
        out: List[ContentRun] = []
        for area in self._areas:
            if not area.resident:
                continue
            resident: List[Run] = []
            mask_runs(area.resident, area.first, resident)
            runs = area.runs
            index = 0
            for first, end in resident:
                cursor = first
                while index < len(runs) and runs[index][0] < end:
                    a, b, payload = runs[index]
                    if a > cursor:
                        out.append((cursor, a, ZERO_CONTENT))
                    out.append((a, b, payload))
                    cursor = b
                    index += 1
                if cursor < end:
                    out.append((cursor, end, ZERO_CONTENT))
        return PageImage(out)

    def content_runs_per_vma(self) -> Dict[int, int]:
        """Number of non-zero content runs each VMA holds, keyed by VMA start."""
        return {area.vma.start: len(area.runs) for area in self._areas}

    def find_vma(self, address: int) -> Optional[Vma]:
        """Return the VMA containing ``address``, if any."""
        area = self._area_at(address // PAGE_SIZE)
        return area.vma if area is not None else None

    def mapping_at(self, page_number: int) -> Optional[_Area]:
        """The mapping holding ``page_number`` (``None`` if unmapped), as a handle.

        The handle is what :meth:`write_mapped`, :meth:`read_mapped` and
        :meth:`touch_read_mapped` take in place of a lookup.  It stays valid
        for ``page_number`` while ``handle.holds(page_number)``: while its
        mapping lives and still holds the page.  Only an ``munmap`` or
        ``mprotect`` over the mapping (and a ``brk`` that unmaps a whole
        heap piece) replaces it, which marks the handle dead
        (``handle.live`` false).  Every other edit leaves it valid:
        mappings elsewhere appearing or going, and a ``brk`` that moves the
        end of the heap piece the handle is, which keeps the mapping and
        drops only the pages the new break leaves above it.
        """
        return self._area_at(page_number)

    def is_resident(self, page_number: int) -> bool:
        """True if ``page_number`` has an allocated frame."""
        area = self._area_at(page_number)
        return area is not None and bool(area.resident >> (page_number - area.first) & 1)

    def is_soft_dirty(self, page_number: int) -> bool:
        """True if ``page_number``'s soft-dirty bit is set."""
        area = self._area_at(page_number)
        return area is not None and bool(area.soft_dirty >> (page_number - area.first) & 1)

    def page_state(self, page_number: int) -> PageState:
        """Contents, tracking bits and sharing of one page."""
        area = self._area_at(page_number)
        if area is None:
            return PageState(ZERO_CONTENT, False, False, False, False, False, 0)
        rel = page_number - area.first
        resident = bool(area.resident >> rel & 1)
        shares = int(resident)
        for group, mask in area.shared:
            if mask >> rel & 1:
                shares = group.count(page_number)
        return PageState(
            content=self.page_content(page_number),
            resident=resident,
            soft_dirty=bool(area.soft_dirty >> rel & 1),
            cow=bool(area.cow >> rel & 1),
            write_protected=bool(area.wp >> rel & 1),
            tlb_cold=bool(area.tlb_cold >> rel & 1),
            shares=shares,
        )

    def page_content(self, page_number: int) -> bytes:
        """Return the payload of a page (zero content if not resident)."""
        area = self._area_at(page_number)
        payload = content_at(area.runs, page_number) if area is not None else None
        return ZERO_CONTENT if payload is None else payload

    def layout(self) -> MemoryLayout:
        """Return an immutable record of the current memory layout.

        Its records are this space's own :class:`Vma` objects, which a
        mapping change replaces and never mutates.  The layout is built
        once per :attr:`layout_generation`, which every change to a mapping
        or to the break moves, and the same object is returned until then.
        """
        if self._layout_built_at != self.layout_generation:
            self._layout = MemoryLayout(tuple([area.vma for area in self._areas]), self._brk)
            self._layout_built_at = self.layout_generation
        return self._layout

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
        # Mappings are disjoint and sorted, so only the last one starting
        # before ``end`` can reach past ``start``; without an overlap the new
        # mapping goes right after it.
        index = bisect.bisect_left(self._starts, end)
        if index and self._areas[index - 1].vma.end > start:
            raise MappingError(
                f"mmap range [{start:#x}, {end:#x}) overlaps an existing mapping"
            )
        vma = Vma(start, end, prot, kind, name)
        area = _Area(vma)
        if populate:
            area.resident = area.soft_dirty = (1 << num_pages) - 1
        self._insert_area(area, index)
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
        """Unmap ``[start, start+length)``; returns the number of pages dropped.

        The mappings the range overlaps are replaced by their pieces outside
        it, which take over only the state of pages outside it, and are
        marked dead (see :meth:`mapping_at`).  So the pages inside are
        discarded with their mappings, not cleared first: the unmap counts
        the resident ones and releases their copy-on-write shares.
        """
        if start % PAGE_SIZE:
            raise MappingError(f"munmap address {start:#x} is not page aligned")
        if length <= 0:
            raise MappingError("munmap length must be positive")
        end = start + ((length + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        return self._carve_range(start, end, replacement=None)

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
        return self._drop(start // PAGE_SIZE, end // PAGE_SIZE)

    def set_brk(self, new_brk: int) -> int:
        """Set the program break, growing or shrinking the heap mapping.

        As in Linux, growing extends the heap piece that ends at the break
        when it is still read-write (an ``mprotect`` may have split the
        heap) and maps a new read-write heap piece there otherwise;
        growing into another mapping raises :class:`MappingError`.
        Shrinking unmaps everything between the new and the old break.
        """
        if new_brk < DEFAULT_BRK_BASE:
            raise MappingError(
                f"brk {new_brk:#x} below heap base {DEFAULT_BRK_BASE:#x}"
            )
        new_brk = ((new_brk + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        old_brk = self._brk
        if new_brk == old_brk:
            return self._brk
        if new_brk > old_brk:
            # One bisection: the last mapping starting below the new break
            # overlaps the growth unless it ends by the old break, and is
            # then the heap piece ending at the break, if there is one.
            index = bisect.bisect_left(self._starts, new_brk) - 1
            below = self._areas[index] if index >= 0 else None
            if below is not None and below.vma.end > old_brk:
                raise MappingError(
                    f"brk {new_brk:#x} would grow the heap into an existing mapping"
                )
            if (
                below is not None
                and below.vma.end == old_brk
                and below.vma.kind is VmaKind.HEAP
                and below.vma.prot == _RW
            ):
                self._resize_area(below, new_brk)
            else:
                self._insert_area(
                    _Area(Vma(old_brk, new_brk, _RW, VmaKind.HEAP, "[heap]")), index + 1
                )
        else:
            top = self._heap_top()
            if top is not None and top.vma.start < new_brk:
                self._truncate(top, new_brk // PAGE_SIZE)
                self._resize_area(top, new_brk)
            else:
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
        """Write ``data`` as the payload of ``count`` pages from ``start_page``.

        This is the write-fault path.  The VMA and its ``WRITE`` permission
        are resolved once per VMA the range touches; then each page, in
        order, takes the faults of a write:

        * an allocating minor fault if it is not resident; otherwise a
          first-touch fault if its TLB is cold (a freshly forked child) and
          a data-copying fault if it is shared copy-on-write;
        * a userfaultfd fault if it is write-protected, which calls the
          armed handler;
        * a soft-dirty fault on the first write after ``clear_refs``, unless
          the write already took an allocating fault.

        Pages whose five state bits agree take the same faults, so each
        stretch of them is charged at once, exactly as the sequence of
        per-fault adds in page order would charge it (:func:`_repeat_add`),
        so the float total does not depend on how writes are batched.  A
        page outside any writable mapping raises :class:`SegmentationFault`;
        the pages before it keep their writes, and none of the range counts
        towards ``pages_written``.  A negative ``count`` raises
        :class:`MappingError`.
        """
        self.write_mapped(self._area_at(start_page), start_page, count, data)

    def write_mapped(
        self, mapping: Optional[_Area], start_page: int, count: int, data: bytes
    ) -> None:
        """:meth:`write_range` with the lookup of ``start_page`` already done.

        ``mapping`` is a :meth:`mapping_at` handle that holds ``start_page``
        (``mapping.holds(start_page)``).  The pages are written exactly as by
        :meth:`write_range`; a range that runs past ``mapping`` looks the
        following mappings up as it reaches them.
        """
        if count < 0:
            raise MappingError(f"cannot write a negative number of pages ({count})")
        end_page = start_page + count
        page = start_page
        area = mapping
        while page < end_page:
            if area is None or not area.writable:
                raise SegmentationFault(page * PAGE_SIZE, access="write")
            stop = area.end if area.end < end_page else end_page
            self._write_faults(area, page, stop)
            put_content(area.runs, page, stop, data)
            page = stop
            if page < end_page:
                area = self._area_at(page)
        self.meter.pages_written += count

    def read(self, address: int) -> bytes:
        """Read the payload of the page containing ``address``."""
        return self.read_page(address // PAGE_SIZE)

    def read_page(self, page_number: int) -> bytes:
        """Read the payload of ``page_number`` (zeroes if not resident)."""
        return self.read_mapped(self._area_at(page_number), page_number)

    def read_mapped(self, mapping: Optional[_Area], page_number: int) -> bytes:
        """:meth:`read_page` with ``mapping`` = :meth:`mapping_at` of the page."""
        area = mapping
        if area is None or not area.readable:
            raise SegmentationFault(page_number * PAGE_SIZE, access="read")
        bit = 1 << (page_number - area.first)
        meter = self.meter
        if area.tlb_cold & bit:
            meter.cost_seconds += self.cost_model.fork_first_touch_seconds
            meter.first_touch_faults += 1
            area.tlb_cold &= ~bit
        meter.pages_read += 1
        payload = content_at(area.runs, page_number)
        return ZERO_CONTENT if payload is None else payload

    def touch_read_range(self, start_page: int, count: int) -> None:
        """Read-touch ``count`` pages starting at ``start_page``.

        This is how the §5.2 microbenchmark's "read one word from every
        mapped page" step is modelled.  For warm pages it is free; pages that
        are TLB-cold (freshly forked child) pay their first-access cost.
        Unmapped pages are counted as read and charge nothing.
        """
        self.touch_read_mapped(self._area_at(start_page), start_page, count)

    def touch_read_mapped(
        self, mapping: Optional[_Area], start_page: int, count: int
    ) -> None:
        """:meth:`touch_read_range` with ``mapping`` = :meth:`mapping_at` of ``start_page``.

        A range inside ``mapping`` whose TLB is warm costs one mask test.
        """
        if count <= 0:
            return
        end_page = start_page + count
        if mapping is not None and end_page <= mapping.end:
            if mapping.tlb_cold:
                self._touch_cold(mapping, ((1 << count) - 1) << (start_page - mapping.first))
        else:
            for area, span in self._spans(start_page, end_page):
                if area.tlb_cold:
                    self._touch_cold(area, span)
        self.meter.pages_read += count

    # ------------------------------------------------------------------
    # Tracking control (used by Groundhog via procfs)
    # ------------------------------------------------------------------

    def clear_soft_dirty(self) -> int:
        """Clear every soft-dirty bit and arm tracking; returns bits cleared.

        Equivalent to writing ``4`` to ``/proc/<pid>/clear_refs``.  After this
        call the first write to each page pays a small write-protect fault
        (the paper's in-function overhead) and re-sets its bit.
        """
        cleared = 0
        for area in self._areas:
            if area.soft_dirty:
                cleared += area.soft_dirty.bit_count()
                area.soft_dirty = 0
        self._sd_tracking_armed = True
        return cleared

    def arm_write_protection(self, handler: Optional[Callable[[int], None]] = None) -> int:
        """Write-protect every resident page (userfaultfd-WP style).

        ``handler`` is invoked with the page number on each write fault, in
        page order.  It runs in the middle of a write, so it may record the
        page but must not change mappings or tracking state.  Returns the
        number of pages protected.
        """
        protected = 0
        for area in self._areas:
            area.wp = area.resident
            protected += area.resident.bit_count()
        self._wp_handler = handler
        return protected

    # ------------------------------------------------------------------
    # Kernel-side access (no function-visible faults): used by ptrace /
    # /proc/<pid>/mem during snapshot and restore.
    # ------------------------------------------------------------------

    def kernel_read_page(self, page_number: int) -> bytes:
        """Read a page the way the manager does via ``/proc/<pid>/mem``."""
        return self.page_content(page_number)

    def kernel_write_range(self, start_page: int, count: int, data: bytes) -> None:
        """Write ``data`` into ``count`` pages without charging function faults.

        This is how the manager writes memory through ``/proc/<pid>/mem``:
        a page that was never resident is materialised (the kernel
        allocates on the write), a copy-on-write page gets a private frame,
        and every written page becomes soft-dirty like any other write
        (Groundhog resets the bits afterwards).  A page outside every
        mapping raises :class:`SegmentationFault` after the pages before it.
        """
        if count < 0:
            raise MappingError(f"cannot write a negative number of pages ({count})")
        end_page = start_page + count
        page = start_page
        while page < end_page:
            area = self._kernel_area(page)
            stop = area.end if area.end < end_page else end_page
            self._kernel_write_bits(area, page, stop)
            put_content(area.runs, page, stop, data)
            page = stop

    def kernel_write_image(self, image: PageImage, runs: Sequence[Run]) -> None:
        """Write ``image``'s payloads back into the pages of ``runs``.

        Each page is written as by :meth:`kernel_write_range`; pages the
        image lacks are written as zero pages.  Runs are written in the
        order given.
        """
        for first, end in runs:
            page = first
            while page < end:
                area = self._kernel_area(page)
                stop = area.end if area.end < end else end
                self._kernel_write_bits(area, page, stop)
                for a, b, payload in image.pieces(page, stop):
                    put_content(area.runs, a, b, payload)
                page = stop

    def kernel_drop_runs(self, runs: Sequence[Run]) -> int:
        """Drop the resident pages of ``runs`` from the kernel side; returns how many."""
        return sum(self._drop(first, end) for first, end in runs)

    # ------------------------------------------------------------------
    # fork()
    # ------------------------------------------------------------------

    def fork(self) -> "AddressSpace":
        """Return a copy-on-write duplicate of this address space.

        Both parent and child see all currently resident pages marked CoW;
        whichever side writes first pays the data-copying fault, exactly as
        with ``fork(2)``.  The child additionally has a cold TLB: its first
        access to every page pays a small first-touch cost (§5.2.3).
        """
        child = AddressSpace(self.cost_model)
        child._starts = list(self._starts)
        child._brk = self._brk
        child._mmap_next = self._mmap_next
        child._stack_next = self._stack_next
        child._sd_tracking_armed = self._sd_tracking_armed
        child._mapped_pages = self._mapped_pages
        child._layout = self.layout()
        for area in self._areas:
            if area.resident:
                private = area.resident
                for group, mask in area.shared:
                    for first, end in _runs_of_mask(mask, area.first):
                        group.add(first, end, 1)
                    private &= ~mask
                if private:
                    group = _ShareGroup()
                    for first, end in _runs_of_mask(private, area.first):
                        group.add(first, end, 2)
                    area.shared = area.shared + [(group, private)]
                area.cow = area.resident
            copy = area.piece(area.vma)
            copy.tlb_cold = area.resident
            copy.wp = 0
            child._areas.append(copy)
        return child

    # ------------------------------------------------------------------
    # Fault and page-state internals
    # ------------------------------------------------------------------

    def _area_at(self, page_number: int) -> Optional[_Area]:
        index = bisect.bisect_right(self._starts, page_number * PAGE_SIZE) - 1
        if index >= 0:
            area = self._areas[index]
            if page_number < area.end:
                return area
        return None

    def _spans(self, first_page: int, end_page: int) -> Iterator[Tuple[_Area, int]]:
        """Each VMA overlapping ``[first_page, end_page)`` with the mask of the overlap."""
        areas = self._areas
        index = max(bisect.bisect_right(self._starts, first_page * PAGE_SIZE) - 1, 0)
        while index < len(areas) and areas[index].first < end_page:
            area = areas[index]
            index += 1
            a = first_page if first_page > area.first else area.first
            b = end_page if end_page < area.end else area.end
            if a < b:
                yield area, ((1 << (b - a)) - 1) << (a - area.first)

    def _kernel_area(self, page_number: int) -> _Area:
        area = self._area_at(page_number)
        if area is None:
            raise SegmentationFault(page_number * PAGE_SIZE, access="kernel-write")
        return area

    def _write_faults(self, area: _Area, first: int, stop: int) -> None:
        """Charge the write faults of pages ``[first, stop)`` of ``area`` and set their bits."""
        rel = first - area.first
        span = ((1 << (stop - first)) - 1) << rel
        resident = area.resident & span
        meter = self.meter
        cm = self.cost_model
        if not (area.cow | area.tlb_cold | area.wp) & span and (
            resident == span or not resident
        ):
            # Every page takes the same fault (or none).  A run too short
            # for the closed form is charged here, one add per fault.
            if not resident:
                faults = stop - first
                step = cm.minor_fault_seconds
                meter.minor_faults += faults
                area.resident |= span
            elif self._sd_tracking_armed:
                faults = stop - first - (area.soft_dirty & span).bit_count()
                step = cm.soft_dirty_fault_seconds
                meter.soft_dirty_faults += faults
            else:
                area.soft_dirty |= span
                return
            if faults < CLOSED_FORM_MIN_ADDS:
                cost = meter.cost_seconds
                for _ in range(faults):
                    cost += step
                meter.cost_seconds = cost
            else:
                meter.cost_seconds = _repeat_add(meter.cost_seconds, (step,), faults)
            area.soft_dirty |= span
            return
        # Mixed state: split the range where any of the five bits changes
        # and charge each stretch of identical pages in one loop.
        cold = area.tlb_cold & span
        cow = area.cow & span
        protected = area.wp & span
        dirty = area.soft_dirty & span
        edges = 1 << rel
        for mask in (resident, cold, cow, protected, dirty):
            edges |= (mask ^ (mask << 1)) & span
        armed = self._sd_tracking_armed
        handler = self._wp_handler
        end = stop - area.first
        cost = meter.cost_seconds
        while edges:
            bit = edges & -edges
            edges ^= bit
            pos = bit.bit_length() - 1
            nxt = (edges & -edges).bit_length() - 1 if edges else end
            times = nxt - pos
            steps = []
            if not resident & bit:
                steps.append(cm.minor_fault_seconds)
                meter.minor_faults += times
                allocating = True
            else:
                allocating = False
                if cold & bit:
                    steps.append(cm.fork_first_touch_seconds)
                    meter.first_touch_faults += times
                if cow & bit:
                    steps.append(cm.cow_fault_seconds)
                    meter.cow_faults += times
                    allocating = True
            if protected & bit:
                steps.append(cm.uffd_fault_seconds)
                meter.uffd_faults += times
            if armed and not allocating and not dirty & bit:
                steps.append(cm.soft_dirty_fault_seconds)
                meter.soft_dirty_faults += times
            cost = _repeat_add(cost, steps, times)
            if protected & bit and handler is not None:
                for page in range(area.first + pos, area.first + nxt):
                    handler(page)
        meter.cost_seconds = cost
        if cow:
            self._release(area, cow)
        area.resident |= span
        area.soft_dirty |= span
        area.tlb_cold &= ~span
        area.wp &= ~span

    def _touch_cold(self, area: _Area, span: int) -> None:
        """Charge the first-touch faults of ``area``'s TLB-cold pages in the mask ``span``."""
        cold = (area.tlb_cold & span).bit_count()
        if cold:
            meter = self.meter
            meter.cost_seconds = _repeat_add(
                meter.cost_seconds, (self.cost_model.fork_first_touch_seconds,), cold
            )
            meter.first_touch_faults += cold
            area.tlb_cold &= ~span

    def _kernel_write_bits(self, area: _Area, first: int, stop: int) -> None:
        """Materialise pages ``[first, stop)``, break their CoW sharing, mark them dirty."""
        span = ((1 << (stop - first)) - 1) << (first - area.first)
        if area.cow & span:
            self._release(area, span)
        area.resident |= span
        area.soft_dirty |= span

    def _release(self, area: _Area, mask: int) -> None:
        """Stop sharing the CoW frames of ``area``'s pages in ``mask``."""
        if not area.cow & mask:
            return
        kept = []
        for group, pages in area.shared:
            hit = pages & mask
            if hit:
                for first, end in _runs_of_mask(hit, area.first):
                    group.add(first, end, -1)
                pages &= ~mask
            if pages:
                kept.append((group, pages))
        area.shared = kept
        area.cow &= ~mask

    def _drop(self, first_page: int, end_page: int) -> int:
        """Forget the pages of ``[first_page, end_page)``; returns how many were resident."""
        dropped = 0
        areas = self._areas
        count = len(areas)
        index = bisect.bisect_right(self._starts, first_page * PAGE_SIZE) - 1
        if index < 0:
            index = 0
        while index < count:
            area = areas[index]
            index += 1
            if area.first >= end_page:
                break
            a = first_page if first_page > area.first else area.first
            b = end_page if end_page < area.end else area.end
            if a >= b:
                continue
            span = ((1 << (b - a)) - 1) << (a - area.first)
            resident = area.resident & span
            if not resident:
                continue
            dropped += resident.bit_count()
            self._release(area, span)
            keep = ~span
            area.resident &= keep
            area.soft_dirty &= keep
            area.wp &= keep
            area.tlb_cold &= keep
            put_content(area.runs, first_page, end_page, ZERO_CONTENT)
        return dropped

    def _truncate(self, area: _Area, end: int) -> None:
        """Forget ``area``'s pages from page ``end`` on, ahead of a resize that ends it there."""
        keep = (1 << (end - area.first)) - 1
        if area.cow & ~keep:
            self._release(area, ~keep)
        area.resident &= keep
        area.soft_dirty &= keep
        area.wp &= keep
        area.tlb_cold &= keep
        runs = area.runs
        # The content runs from ``end`` on are the list's tail; a run
        # across ``end`` keeps its part below.
        index = bisect.bisect_left(runs, (end,))
        if index and runs[index - 1][1] > end:
            first, _, payload = runs[index - 1]
            runs[index - 1] = (first, end, payload)
        del runs[index:]

    # ------------------------------------------------------------------
    # VMA bookkeeping internals
    # ------------------------------------------------------------------

    def _heap_top(self) -> Optional[_Area]:
        """The heap piece that ends at the program break, if any."""
        index = bisect.bisect_left(self._starts, self._brk) - 1
        if index >= 0:
            area = self._areas[index]
            if area.vma.kind is VmaKind.HEAP and area.vma.end == self._brk:
                return area
        return None

    def _insert_area(self, area: _Area, index: int) -> None:
        """Insert ``area`` at position ``index`` of the start-sorted mappings."""
        self._areas.insert(index, area)
        self._starts.insert(index, area.vma.start)
        self._mapped_pages += area.end - area.first
        self.layout_generation += 1

    def _resize_area(self, area: _Area, new_end: int) -> None:
        """Move ``area``'s end to ``new_end`` (its pages past the end are already dropped).

        The area lives on, and with it every handle to it.  Its record is
        replaced: by the one it had before its last resize when that one
        ends at ``new_end``, else by a new one.  A heap that each request
        grows and each restore shrinks back so alternates between two
        records, and after the restore its record is the snapshot's own.
        """
        vma = area.previous
        if vma is None or vma.end != new_end:
            vma = area.vma.with_bounds(area.vma.start, new_end)
        area.previous = area.vma
        area.vma = vma
        end = new_end // PAGE_SIZE
        self._mapped_pages += end - area.end
        area.end = end
        self.layout_generation += 1

    def _range_fully_mapped(self, start: int, end: int) -> bool:
        # Walk from the last mapping starting at or before ``start``.
        areas = self._areas
        index = max(bisect.bisect_right(self._starts, start) - 1, 0)
        cursor = start
        while cursor < end and index < len(areas):
            vma = areas[index].vma
            index += 1
            if vma.end <= cursor:
                continue
            if vma.start > cursor:
                return False
            cursor = vma.end
        return cursor >= end

    def _carve_range(
        self, start: int, end: int, replacement: Optional[Protection]
    ) -> int:
        """Remove (``replacement is None``) or re-protect a range, splitting VMAs.

        Only the VMAs overlapping ``[start, end)`` are visited: one
        bisection of ``_starts`` finds the first, and their pieces are
        spliced in their place.  Every area visited is replaced, so it is
        marked dead.  A removal returns how many resident pages the range
        held, releasing their copy-on-write shares; nothing else of them
        needs clearing, as the pieces outside the range copy only their own
        pages' state.
        """
        areas = self._areas
        low = bisect.bisect_right(self._starts, start) - 1
        if low < 0 or areas[low].vma.end <= start:
            low += 1
        first_page = start // PAGE_SIZE
        end_page = end // PAGE_SIZE
        high = low
        count = len(areas)
        pieces: List[_Area] = []
        mapped = self._mapped_pages
        dropped = 0
        while high < count and areas[high].first < end_page:
            area = areas[high]
            high += 1
            area.live = False
            vma = area.vma
            mapped -= area.end - area.first
            if vma.start < start:
                pieces.append(area.piece(vma.with_bounds(vma.start, start)))
            if replacement is not None:
                overlap = vma.with_bounds(max(vma.start, start), min(vma.end, end))
                pieces.append(area.piece(overlap.with_prot(replacement)))
            elif area.resident:
                a = first_page if first_page > area.first else area.first
                b = end_page if end_page < area.end else area.end
                span = ((1 << (b - a)) - 1) << (a - area.first)
                resident = area.resident & span
                if resident:
                    dropped += resident.bit_count()
                    if area.cow & span:
                        self._release(area, span)
            if vma.end > end:
                pieces.append(area.piece(vma.with_bounds(end, vma.end)))
        for area in pieces:
            mapped += area.end - area.first
        areas[low:high] = pieces
        self._starts[low:high] = [area.vma.start for area in pieces]
        self._mapped_pages = mapped
        self.layout_generation += 1
        return dropped


def _runs_of_mask(mask: int, base: int) -> List[Run]:
    out: List[Run] = []
    mask_runs(mask, base, out)
    return out
