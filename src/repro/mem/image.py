"""Page runs and page images: run-length page state.

Groundhog's bookkeeping is naturally run-shaped: a function writes one
buffer across a range of pages, ``MAP_POPULATE`` and snapshots are long
stretches of identical pages, and the kernel reports soft-dirty pages one bit
per page (§4.3).  This module holds the two shapes the address space, the
snapshot and every restore path exchange:

* a **page run list** is a sorted tuple of ``(first, end)`` ranges of
  absolute page numbers; ranges never overlap or touch, so every run is
  maximal and two equal sets of pages have equal run lists;
* a :class:`PageImage` is a set of resident pages with their payloads, held
  as sorted ``(first, end, payload)`` runs in which neighbouring runs never
  carry the same payload.  It is what a snapshot stores and what restores
  write back.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.mem.page import ZERO_CONTENT

#: A half-open range ``[first, end)`` of absolute page numbers.
Run = Tuple[int, int]
#: A maximal page run list (sorted, disjoint, never touching).
Runs = Tuple[Run, ...]
#: A run of pages sharing one payload.
ContentRun = Tuple[int, int, bytes]


def count_pages(runs: Iterable[Run]) -> int:
    """Number of pages the runs cover."""
    return sum(end - first for first, end in runs)


def page_numbers(runs: Iterable[Run]) -> Tuple[int, ...]:
    """Every page number the runs cover, ascending."""
    return tuple(page for first, end in runs for page in range(first, end))


def runs_of_pages(page_numbers: Iterable[int]) -> Runs:
    """The maximal runs covering ``page_numbers`` (any order, repeats allowed)."""
    out: List[Run] = []
    for page in sorted(set(page_numbers)):
        if out and out[-1][1] == page:
            out[-1] = (out[-1][0], page + 1)
        else:
            out.append((page, page + 1))
    return tuple(out)


def append_run(out: List[Run], first: int, end: int) -> None:
    """Append ``[first, end)`` to ascending ``out``, merging a touching run."""
    if out and out[-1][1] == first:
        out[-1] = (out[-1][0], end)
    else:
        out.append((first, end))


def mask_runs(mask: int, base: int, out: List[Run]) -> None:
    """Append the runs of set bits of ``mask`` to ``out`` (bit ``i`` is page ``base + i``)."""
    while mask:
        start = (mask & -mask).bit_length() - 1
        filled = mask | ((1 << start) - 1)
        stop = (~filled & (filled + 1)).bit_length() - 1
        append_run(out, base + start, base + stop)
        mask &= -1 << stop


def union_runs(a: Sequence[Run], b: Sequence[Run]) -> Runs:
    """Pages in ``a`` or ``b``."""
    out: List[Run] = []
    for first, end in sorted((*a, *b)):
        if out and out[-1][1] >= first:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((first, end))
    return tuple(out)


def intersect_runs(a: Sequence[Run], b: Sequence[Run]) -> Runs:
    """Pages in both ``a`` and ``b``."""
    out: List[Run] = []
    i = j = 0
    while i < len(a) and j < len(b):
        a_first, a_end = a[i]
        b_first, b_end = b[j]
        first = a_first if a_first > b_first else b_first
        end = a_end if a_end < b_end else b_end
        if first < end:
            out.append((first, end))
        if a_end < b_end:
            i += 1
        else:
            j += 1
    return tuple(out)


def subtract_runs(a: Sequence[Run], b: Sequence[Run]) -> Runs:
    """Pages in ``a`` but not in ``b``."""
    out: List[Run] = []
    j = 0
    for first, end in a:
        while j < len(b) and b[j][1] <= first:
            j += 1
        k = j
        while first < end and k < len(b) and b[k][0] < end:
            if b[k][0] > first:
                out.append((first, b[k][0]))
            first = max(first, b[k][1])
            k += 1
        if first < end:
            out.append((first, end))
    return tuple(out)


def put_content(runs: List[ContentRun], first: int, end: int, payload: bytes) -> None:
    """Set the payload of pages ``[first, end)`` in a sorted content-run list.

    The list holds non-zero payloads only: writing ``ZERO_CONTENT`` removes
    the range.  Neighbouring runs with the payload being written are merged
    into the new run, so the list stays canonical.  A write that covers
    exactly one run, with no touching neighbour holding ``payload``,
    replaces that run in place (a request rewriting its buffer).  An empty
    range changes nothing.
    """
    if first >= end:
        return
    lo = bisect.bisect_left(runs, (first,))
    count = len(runs)
    if (
        payload
        and lo < count
        and runs[lo][0] == first
        and runs[lo][1] == end
        and (lo == 0 or runs[lo - 1][1] < first or runs[lo - 1][2] != payload)
        and (lo + 1 == count or runs[lo + 1][0] > end or runs[lo + 1][2] != payload)
    ):
        runs[lo] = (first, end, payload)
        return
    if lo and runs[lo - 1][1] >= first:
        lo -= 1
    hi = lo
    while hi < count and runs[hi][0] <= end:
        hi += 1
    pieces: List[ContentRun] = []
    right: Optional[ContentRun] = None
    for a, b, old in runs[lo:hi]:
        if a < first:
            if old == payload:
                first = a
            else:
                pieces.append((a, first, old))
        if b > end:
            if old == payload:
                end = b
            else:
                right = (end, b, old)
    if payload:
        pieces.append((first, end, payload))
    if right is not None:
        pieces.append(right)
    runs[lo:hi] = pieces


def content_at(runs: Sequence[ContentRun], page: int) -> Optional[bytes]:
    """Payload of ``page`` in a sorted content-run list, or ``None`` if absent."""
    index = bisect.bisect_left(runs, (page + 1,))
    if index and runs[index - 1][1] > page:
        return runs[index - 1][2]
    return None


class PageImage:
    """Resident pages and their payloads, as canonical content runs.

    Two images are equal exactly when they hold the same pages with the
    same payloads.
    """

    __slots__ = ("runs", "coverage", "num_pages")

    def __init__(self, runs: Sequence[ContentRun] = ()) -> None:
        merged: List[ContentRun] = []
        coverage: List[Run] = []
        for first, end, payload in runs:
            if merged and merged[-1][1] == first and merged[-1][2] == payload:
                merged[-1] = (merged[-1][0], end, payload)
            else:
                merged.append((first, end, payload))
            append_run(coverage, first, end)
        #: The pages and payloads, as sorted content runs.
        self.runs: Tuple[ContentRun, ...] = tuple(merged)
        #: The pages the image holds, as a page run list.
        self.coverage: Runs = tuple(coverage)
        #: Number of pages the image holds.
        self.num_pages = count_pages(coverage)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PageImage) and self.runs == other.runs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageImage(pages={self.num_pages}, runs={len(self.runs)})"

    def content(self, page: int) -> bytes:
        """Payload of ``page`` (zero content if the image lacks it)."""
        payload = content_at(self.runs, page)
        return ZERO_CONTENT if payload is None else payload

    def covered(self, runs: Sequence[Run]) -> Runs:
        """The pages of the page run list ``runs`` the image holds.

        Equal to ``intersect_runs(runs, self.coverage)``, but each run
        bisects into :attr:`coverage` and visits only the coverage runs it
        overlaps, so a small write set against a large snapshot costs
        O(runs x log coverage).
        """
        coverage = self.coverage
        count = len(coverage)
        out: List[Run] = []
        for first, end in runs:
            index = bisect.bisect_left(coverage, (first + 1,))
            if index and coverage[index - 1][1] > first:
                index -= 1
            while index < count:
                a, b = coverage[index]
                if a >= end:
                    break
                out.append((a if a > first else first, b if b < end else end))
                index += 1
        return tuple(out)

    def missing(self, runs: Sequence[Run]) -> Runs:
        """The pages of the page run list ``runs`` the image lacks.

        Equal to ``subtract_runs(runs, self.coverage)``, visiting only the
        coverage runs each run overlaps, found by bisection.
        """
        coverage = self.coverage
        count = len(coverage)
        out: List[Run] = []
        for first, end in runs:
            index = bisect.bisect_left(coverage, (first + 1,))
            if index and coverage[index - 1][1] > first:
                index -= 1
            while first < end and index < count:
                a, b = coverage[index]
                if a >= end:
                    break
                if a > first:
                    out.append((first, a))
                first = b
                index += 1
            if first < end:
                out.append((first, end))
        return tuple(out)

    def pieces(self, first: int, end: int) -> List[ContentRun]:
        """Content runs covering ``[first, end)`` exactly; pages the image lacks read as zero."""
        out: List[ContentRun] = []
        runs = self.runs
        index = bisect.bisect_left(runs, (first + 1,))
        if index and runs[index - 1][1] > first:
            index -= 1
        cursor = first
        while cursor < end and index < len(runs) and runs[index][0] < end:
            a, b, payload = runs[index]
            if a > cursor:
                out.append((cursor, a, ZERO_CONTENT))
                cursor = a
            stop = b if b < end else end
            out.append((cursor, stop, payload))
            cursor = stop
            index += 1
        if cursor < end:
            out.append((cursor, end, ZERO_CONTENT))
        return out

    def first_difference(self, other: "PageImage") -> Optional[int]:
        """The lowest page of this image whose payload differs in ``other``."""
        for first, end, payload in self.runs:
            for a, _, theirs in other.pieces(first, end):
                if theirs != payload:
                    return a
        return None


def revert(space, image: PageImage, runs: Sequence[Run]) -> Tuple[int, int]:
    """Revert the pages of ``runs`` to ``image`` from the kernel side.

    Pages the image holds get their payload back; resident pages it lacks
    are dropped.  ``space`` is an address space; returns the number of pages
    written back and dropped.
    """
    restored = image.covered(runs)
    space.kernel_write_image(image, restored)
    return count_pages(restored), space.kernel_drop_runs(
        space.resident_within(image.missing(runs))
    )
