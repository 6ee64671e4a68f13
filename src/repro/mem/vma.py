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
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class Vma:
    """A contiguous mapping ``[start, end)`` with uniform protection."""

    start: int
    end: int
    prot: Protection
    kind: VmaKind = VmaKind.ANON
    name: str = ""

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise MappingError(
                f"VMA bounds must be page aligned: [{self.start:#x}, {self.end:#x})"
            )
        if self.end <= self.start:
            raise MappingError(
                f"VMA must have positive length: [{self.start:#x}, {self.end:#x})"
            )

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

    @property
    def last_page(self) -> int:
        """Absolute page number of the last page (inclusive)."""
        return (self.end // PAGE_SIZE) - 1

    def pages(self) -> range:
        """Iterate absolute page numbers covered by this VMA."""
        return range(self.first_page, self.last_page + 1)

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
        return replace(self, prot=prot)

    def describe(self) -> str:
        """Render roughly like a ``/proc/<pid>/maps`` line."""
        label = self.name or f"[{self.kind.value}]"
        return f"{self.start:012x}-{self.end:012x} {self.prot.describe()}p {label}"
