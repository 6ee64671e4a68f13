"""The Groundhog manager process (Fig. 2).

The manager runs inside the container alongside the function process and is
the only component the FaaS platform talks to.  It plays four roles:

* **Communicator** — it interposes on the stdin/stdout pipes between the
  platform's actionloop proxy and the function runtime, buffering incoming
  requests until the function process is in a clean state and relaying
  responses back (§4.1, §4.5),
* **Snapshotter** — right after the deployer-supplied dummy request has
  warmed the runtime, it records the clean snapshot (§4.2),
* **StateStore** — the snapshot (registers, layout, page contents) lives in
  the manager's own memory,
* **Restorer / SyscallInjector** — after each response it rolls the function
  process back to the snapshot (§4.4).

The manager enforces request isolation *by construction*: a request is only
forwarded when the process is in the ``READY`` state, and the process only
re-enters ``READY`` through a completed restoration (or an explicit
skip-rollback decision for mutually trusting callers).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.errors import IsolationError, RestoreError, SnapshotError
from repro.core.restore import RestoreResult, Restorer
from repro.core.snapshot import ProcessSnapshot, Snapshotter, SnapshotStats
from repro.core.tracking import SoftDirtyTracker, WriteSetTracker
from repro.proc.pipes import Message
from repro.proc.procfs import ProcFs
from repro.proc.ptrace import Ptrace
from repro.runtime.base import FunctionRuntime, InvocationResult


class ManagerState(enum.Enum):
    """State machine of the Groundhog manager."""

    #: Runtime booted but no snapshot exists yet.
    INITIALIZING = "initializing"
    #: Clean snapshot exists; requests may be forwarded.
    READY = "ready"
    #: A request is executing in the function process.
    EXECUTING = "executing"
    #: The response has been returned; the process holds request data and
    #: must be restored before the next request may be forwarded.
    TAINTED = "tainted"


class ManagedInvocation(NamedTuple):
    """What the manager reports back to the container for one request.

    One per request, so a named tuple.
    """

    result: InvocationResult
    #: Extra critical-path time added by the manager's interposition.
    interposition_seconds: float


class GroundhogManager:
    """Manager process guarding one function process."""

    def __init__(
        self,
        runtime: FunctionRuntime,
        *,
        tracker: Optional[WriteSetTracker] = None,
    ) -> None:
        self.runtime = runtime
        self.process = runtime.process
        self._procfs = ProcFs(self.process)
        self._ptrace = Ptrace(self.process)
        self._tracker = tracker if tracker is not None else SoftDirtyTracker(self._procfs)
        self._snapshotter = Snapshotter(self._ptrace, self._procfs, self._tracker)
        self._restorer = Restorer(self._ptrace, self._procfs, self._tracker)
        self._snapshot: Optional[ProcessSnapshot] = None
        self._snapshot_stats: Optional[SnapshotStats] = None
        self.state = ManagerState.INITIALIZING
        self.requests_forwarded = 0
        self.restores_performed = 0
        self.restores_skipped = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def snapshot(self) -> ProcessSnapshot:
        """The clean snapshot (raises if not yet taken)."""
        if self._snapshot is None:
            raise SnapshotError("no snapshot has been taken yet")
        return self._snapshot

    @property
    def snapshot_stats(self) -> SnapshotStats:
        """Timing of the one-time snapshot."""
        if self._snapshot_stats is None:
            raise SnapshotError("no snapshot has been taken yet")
        return self._snapshot_stats

    @property
    def has_snapshot(self) -> bool:
        """True once the clean snapshot exists."""
        return self._snapshot is not None

    @property
    def is_clean(self) -> bool:
        """True when the next request may safely be forwarded."""
        return self.state is ManagerState.READY

    @property
    def restorer(self) -> Restorer:
        """The restorer (exposed for breakdown-oriented experiments)."""
        return self._restorer

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def take_snapshot(self) -> SnapshotStats:
        """Take the clean-state snapshot (once, after the dummy warm-up)."""
        if self._snapshot is not None:
            raise SnapshotError("snapshot already taken for this container")
        snapshot, stats = self._snapshotter.take()
        self._snapshot = snapshot
        self._snapshot_stats = stats
        self.runtime.mark_clean_state()
        self.state = ManagerState.READY
        return stats

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle_request(self, payload: bytes, request_id: str = "") -> ManagedInvocation:
        """Forward one request to the function process and relay its response.

        Raises :class:`~repro.errors.IsolationError` if the process has not
        been restored since the previous request — the manager never lets a
        request reach a tainted process.
        """
        if self.state is ManagerState.INITIALIZING:
            raise IsolationError("manager has no clean snapshot yet")
        if self.state is not ManagerState.READY:
            raise IsolationError(
                f"request blocked: function process is {self.state.value}, not clean"
            )
        cm = self.process.cost_model

        # Relay the request into the function process.
        self.state = ManagerState.EXECUTING
        request_message = Message(payload_bytes=len(payload), body=payload, label=request_id)
        in_cost = self.process.stdin.write(request_message)
        self.process.stdin.read()  # the runtime consumes it

        result = self.runtime.invoke(payload, request_id)

        # Relay the response back to the platform.
        response_message = Message(
            payload_bytes=result.response_bytes, body=result.response, label=request_id
        )
        out_cost = self.process.stdout.write(response_message)
        self.process.stdout.read()

        self.requests_forwarded += 1
        self.state = ManagerState.TAINTED
        interposition = in_cost + out_cost + cm.manager_interposition_seconds
        return ManagedInvocation(result=result, interposition_seconds=interposition)

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------

    def restore(self, *, verify: bool = False) -> RestoreResult:
        """Roll the function process back to the clean snapshot."""
        if self._snapshot is None:
            raise RestoreError("cannot restore before a snapshot exists")
        if self.state is ManagerState.EXECUTING:
            raise RestoreError("cannot restore while a request is executing")
        result = self._restorer.restore(self._snapshot, verify=verify)
        self.runtime.notify_restored()
        self.state = ManagerState.READY
        self.restores_performed += 1
        return result

    def skip_restore(self) -> None:
        """Mark the process clean without restoring it.

        Only valid when consecutive requests come from mutually trusting
        callers (§4.4's optimisation) or when running in the GH-NOP
        configuration used to separate tracking from restoration costs.
        """
        if self.state is ManagerState.EXECUTING:
            raise RestoreError("cannot skip a restore while a request is executing")
        if self.state is ManagerState.TAINTED:
            self.restores_skipped += 1
        self.state = ManagerState.READY
