"""Virtual memory areas (VMAs).

A :class:`Vma` is a contiguous, page-aligned range of the simulated address
space with uniform protection, equivalent to one line of
``/proc/<pid>/maps``.  A :class:`Vma` is an immutable record; the owning
:class:`~repro.mem.address_space.AddressSpace` keeps the state of its pages
beside it (bitmaps indexed from the VMA's first page, payload runs in
absolute page numbers) and splits that state when it splits the VMA.
A mapping change replaces the record, so layouts can share it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.config import PAGE_SIZE
from repro.errors import MappingError
from repro.mem.page import Protection


class VmaKind(enum.Enum):
    """Coarse classification of a mapping, mirroring what maps shows."""

    TEXT = "text"
    DATA = "data"
    HEAP = "heap"
    STACK = "stack"
    ANON = "anon"
    FILE = "file"
    RUNTIME = "runtime"
    GUARD = "guard"


class _VmaFields(NamedTuple):
    """The fields of a :class:`Vma`, which checks them when it is built."""

    start: int
    end: int
    prot: Protection
    kind: VmaKind = VmaKind.ANON
    name: str = ""


class Vma(_VmaFields):
    """A contiguous mapping ``[start, end)`` with uniform protection.

    A named tuple, because a request's mapping edits build a few and a
    named tuple is several times cheaper to build than a frozen dataclass.
    Building one checks that the bounds are page aligned and the length
    positive, raising :class:`MappingError`.
    """

    __slots__ = ()

    def __new__(
        cls,
        start: int,
        end: int,
        prot: Protection,
        kind: VmaKind = VmaKind.ANON,
        name: str = "",
    ) -> "Vma":
        if start % PAGE_SIZE or end % PAGE_SIZE:
            raise MappingError(
                f"VMA bounds must be page aligned: [{start:#x}, {end:#x})"
            )
        if end <= start:
            raise MappingError(
                f"VMA must have positive length: [{start:#x}, {end:#x})"
            )
        return tuple.__new__(cls, (start, end, prot, kind, name))

    @property
    def length(self) -> int:
        """Mapping length in bytes."""
        return self.end - self.start

    @property
    def num_pages(self) -> int:
        """Mapping length in pages."""
        return self.length // PAGE_SIZE

    @property
    def first_page(self) -> int:
        """Absolute page number of the first page."""
        return self.start // PAGE_SIZE

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this mapping."""
        return self.start <= address < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` intersects this mapping."""
        return self.start < end and start < self.end

    def with_bounds(self, start: int, end: int) -> "Vma":
        """Return a copy of this VMA with new bounds (same prot/kind/name)."""
        return Vma(start, end, self.prot, self.kind, self.name)

    def with_prot(self, prot: Protection) -> "Vma":
        """Return a copy of this VMA with different protection."""
        return Vma(self.start, self.end, prot, self.kind, self.name)
