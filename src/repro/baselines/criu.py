"""CRIU-style checkpoint/restore isolation (related work, §6).

Checkpoint/restore systems in the CRIU family serialise the whole process
image (to disk, or to memory in VAS-CRIU) and can in principle provide
request isolation by restoring the image before every request.  The paper
points out why this is not competitive: deserialising and re-instantiating
the image costs hundreds of milliseconds to seconds, orders of magnitude
more than Groundhog's targeted in-memory restore.  This mechanism implements
that design point so the comparison can be regenerated.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.policy import IsolationMechanism
from repro.core.restore import RestoreBreakdown, RestoreResult
from repro.mem.image import PageImage, count_pages, revert
from repro.mem.layout import MemoryLayout
from repro.runtime.base import InvocationResult


class CriuIsolation(IsolationMechanism):
    """Restore the whole process image from a serialised checkpoint."""

    name = "criu"
    provides_isolation = True
    interposes = False

    def __init__(self, profile, **kwargs) -> None:
        super().__init__(profile, **kwargs)
        self._image = PageImage()
        self._layout: Optional[MemoryLayout] = None
        self._brk: int = 0

    def _prepare(self) -> Tuple[float, int]:
        """Serialise the warm process image (the one-time checkpoint)."""
        assert self.process is not None and self.runtime is not None
        space = self.process.address_space
        self._image = space.capture()
        self._layout = space.layout()
        self._brk = space.brk
        self.runtime.mark_clean_state()
        space.clear_soft_dirty()
        cm = self.cost_model
        checkpoint_seconds = (
            cm.criu_checkpoint_base_seconds
            + self.profile.total_kpages * cm.criu_checkpoint_per_kpage_seconds
        )
        return checkpoint_seconds, self._image.num_pages

    def _post_invoke(
        self, result: InvocationResult, *, caller, verify: bool
    ) -> Tuple[float, Optional[RestoreResult], bool]:
        """Re-instantiate the process from the serialised image."""
        assert self.process is not None and self.runtime is not None
        space = self.process.address_space
        dirty = space.soft_dirty_runs()
        restored, dropped = revert(space, self._image, dirty)
        if space.brk != self._brk:
            space.set_brk(self._brk)
        space.clear_soft_dirty()
        self.runtime.reset_logical_state()

        cm = self.cost_model
        restore_seconds = (
            cm.criu_restore_base_seconds
            + self.profile.total_kpages * cm.criu_restore_per_kpage_seconds
        )
        restore = RestoreResult(
            breakdown=RestoreBreakdown(restoring_memory=restore_seconds),
            pages_scanned=self._image.num_pages,
            dirty_pages=count_pages(dirty),
            pages_restored=restored,
            pages_dropped=dropped,
            syscalls={"criu-restore": 1},
        )
        return restore_seconds, restore, False
