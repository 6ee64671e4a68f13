"""FORK: copy-on-write fork-based request isolation (§5.2.3, §5.3.2).

Each request runs in a child forked from the warm, fully initialised
function process; the child is discarded when the request completes, so the
parent never sees request data.  Two costs distinguish it from Groundhog:

* the ``fork`` call itself plus the child's teardown sit on the critical
  path of every request, and
* every first write in the child takes a data-copying CoW fault, and every
  first *access* pays a dTLB-miss / lazy-PTE cost — both proportional to the
  function's memory behaviour and both on the critical path.

It is also not general: only single-threaded functions/runtimes can be
forked safely, which excludes the Node.js benchmarks (§5.3.2).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.policy import IsolationMechanism
from repro.core.restore import RestoreResult
from repro.proc.process import SimProcess
from repro.runtime.base import InvocationResult
from repro.runtime.profiles import FunctionProfile, Language


class ForkIsolation(IsolationMechanism):
    """Serve each request in a forked, discarded copy of the warm process."""

    name = "fork"
    provides_isolation = True
    interposes = False

    def __init__(self, profile: FunctionProfile, **kwargs) -> None:
        super().__init__(profile, **kwargs)
        self._child: Optional[SimProcess] = None

    @classmethod
    def supports(cls, profile: FunctionProfile) -> bool:
        """Fork cannot capture multi-threaded runtimes (Node.js)."""
        return profile.language is not Language.NODE and profile.threads == 1

    def _prepare(self) -> Tuple[float, int]:
        # Remember the warm state so per-request bookkeeping (leak counters,
        # scratch arenas) resets when each child is discarded.
        assert self.runtime is not None
        self.runtime.mark_clean_state()
        return 0.0, 0

    def _pre_invoke(self, caller=None) -> float:
        """Fork the warm process; the fork cost is on the critical path."""
        assert self.process is not None
        result = self.kernel.fork(self.process)
        self._child = result.child
        return result.cost_seconds

    def _run(self, payload: bytes, request_id: str) -> Tuple[InvocationResult, float]:
        """Execute the request inside the forked child."""
        assert self.runtime is not None and self._child is not None
        parent = self.runtime.process
        self.runtime.process = self._child
        try:
            result = self.runtime.invoke(payload, request_id)
        finally:
            self.runtime.process = parent
        return result, 0.0

    def _post_invoke(
        self, result: InvocationResult, *, caller, verify: bool
    ) -> Tuple[float, Optional[RestoreResult], bool]:
        """Discard the child; the parent was never touched."""
        assert self._child is not None
        self.kernel.reap(self._child)
        self._child = None
        assert self.runtime is not None
        self.runtime.reset_logical_state()
        return self.cost_model.fork_teardown_seconds, None, False
