"""Isolation mechanisms: the pluggable policy layer containers are built on.

An :class:`IsolationMechanism` owns everything that happens *inside* one
container: creating the function process, booting and warming the language
runtime, and serving requests with whatever request-isolation strategy the
mechanism implements.  The FaaS platform substrate
(:mod:`repro.faas.container`) is written purely against this interface, so
every configuration the paper evaluates — BASE, GH, GH-NOP, FORK, FAASM,
plus the cold-start and CRIU-style comparison points — differs only in which
mechanism is plugged in.

This module provides the shared template plus Groundhog's two
configurations; the comparison systems live in :mod:`repro.baselines`.
"""

from __future__ import annotations

import abc
import functools
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from repro.errors import IsolationError
from repro.core.manager import GroundhogManager, ManagedInvocation
from repro.core.restore import RestoreResult
from repro.core.snapshot import SnapshotStats
from repro.core.tracking import SoftDirtyTracker, UffdWriteTracker, WriteSetTracker
from repro.kernel.kernel import SimKernel
from repro.proc.pipes import Message
from repro.proc.process import SimProcess
from repro.proc.procfs import ProcFs
from repro.runtime import build_runtime
from repro.runtime.base import FunctionRuntime, InvocationResult
from repro.runtime.profiles import FunctionProfile
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.rng import fallback_stream


@dataclass(frozen=True)
class InitReport:
    """Cost breakdown of initialising one container (Fig. 1's phases)."""

    container_create_seconds: float
    boot_seconds: float
    warm_seconds: float
    prepare_seconds: float
    mapped_pages: int
    snapshot_pages: int
    threads: int

    @property
    def total_seconds(self) -> float:
        """Total container initialisation time."""
        return (
            self.container_create_seconds
            + self.boot_seconds
            + self.warm_seconds
            + self.prepare_seconds
        )


class InvokeReport(NamedTuple):
    """Outcome of serving one request through an isolation mechanism.

    Every request builds one, so it is a named tuple like
    :class:`~repro.runtime.base.InvocationResult`.
    """

    result: InvocationResult
    #: Time on the request's critical path (what the invoker latency sees).
    critical_seconds: float
    #: Work performed after the response was returned (restoration etc.);
    #: it delays the *next* request only if that request arrives too soon.
    post_seconds: float
    #: Portion of ``critical_seconds`` spent before the function ran
    #: (e.g. the fork baseline's fork call).
    pre_seconds: float
    #: Portion of ``critical_seconds`` spent relaying payloads.
    relay_seconds: float
    #: Restoration details when the mechanism restored state.
    restore: Optional[RestoreResult] = None
    #: True when the mechanism deliberately skipped its post-request work.
    post_skipped: bool = False


class IsolationMechanism(abc.ABC):
    """Template for everything that happens inside one container."""

    #: Short configuration name used in experiment tables ("base", "gh", ...).
    name: str = "mechanism"
    #: Whether the mechanism guarantees sequential request isolation.
    provides_isolation: bool = False
    #: Whether the mechanism interposes on the platform/function pipes.
    interposes: bool = False

    def __init__(
        self,
        profile: FunctionProfile,
        *,
        kernel: Optional[SimKernel] = None,
        cost_model: Optional[CostModel] = None,
        rng: Optional[random.Random] = None,
        dummy_payload: bytes = b"__warmup__",
    ) -> None:
        self.profile = profile
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.kernel = kernel if kernel is not None else SimKernel(self.cost_model)
        self.rng = rng if rng is not None else fallback_stream("core.policy")
        self.dummy_payload = dummy_payload
        self.process: Optional[SimProcess] = None
        self.runtime: Optional[FunctionRuntime] = None
        self._initialized = False
        self._previous_caller: Optional[str] = None
        self.init_report: Optional[InitReport] = None

    # ------------------------------------------------------------------
    # Applicability
    # ------------------------------------------------------------------

    @classmethod
    def supports(cls, profile: FunctionProfile) -> bool:
        """Whether this mechanism can host ``profile`` at all."""
        return True

    # ------------------------------------------------------------------
    # Initialisation (Fig. 1: environment, runtime, data initialisation)
    # ------------------------------------------------------------------

    def initialize(self) -> InitReport:
        """Create the container: process, runtime, warm-up, preparation."""
        if self._initialized:
            raise IsolationError(f"{self.name}: container already initialised")
        if not self.supports(self.profile):
            raise IsolationError(
                f"{self.name} cannot host {self.profile.qualified_name}"
            )
        self.process = self.kernel.create_process(self.profile.name, uid=0)
        self.process.drop_privileges(uid=1001)
        self.runtime = self._make_runtime(self.process)

        boot = self.runtime.boot()
        warm_result = self.runtime.warm(self.dummy_payload)
        warm_seconds = warm_result.busy_seconds + self._base_relay_seconds(
            len(self.dummy_payload), warm_result.response_bytes
        )
        prepare_seconds, snapshot_pages = self._prepare()
        self._initialized = True
        self.init_report = InitReport(
            container_create_seconds=self.cost_model.container_create_seconds,
            boot_seconds=boot.boot_seconds,
            warm_seconds=warm_seconds,
            prepare_seconds=prepare_seconds,
            mapped_pages=self.process.address_space.total_mapped_pages,
            snapshot_pages=snapshot_pages,
            threads=boot.threads,
        )
        return self.init_report

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def invoke(
        self,
        payload: Optional[bytes] = None,
        request_id: str = "",
        *,
        caller: Optional[str] = None,
        verify: bool = False,
        skip_post: bool = False,
    ) -> InvokeReport:
        """Serve one request and perform the mechanism's post-request work.

        ``caller`` identifies the security domain on whose behalf the request
        runs; mechanisms that implement the §4.4 skip-rollback optimisation
        use it to elide restoration between mutually trusting requests.
        """
        if not self._initialized or self.runtime is None:
            raise IsolationError(f"{self.name}: container not initialised")
        if payload is None:
            payload = self.default_payload

        pre_seconds = self._pre_invoke(caller=caller)
        result, extra_relay = self._run(payload, request_id)
        relay_seconds = self._base_relay_seconds(len(payload), result.response_bytes)
        relay_seconds += extra_relay
        critical_seconds = pre_seconds + relay_seconds + result.busy_seconds

        if skip_post:
            post_seconds, restore = 0.0, None
            post_skipped = True
        else:
            post_seconds, restore, post_skipped = self._post_invoke(
                result, caller=caller, verify=verify
            )
        self._previous_caller = caller
        return InvokeReport(
            result=result,
            critical_seconds=critical_seconds,
            post_seconds=post_seconds,
            pre_seconds=pre_seconds,
            relay_seconds=relay_seconds,
            restore=restore,
            post_skipped=post_skipped,
        )

    @functools.cached_property
    def default_payload(self) -> bytes:
        """The payload of a request that brings none, built once per mechanism."""
        return b"x" * self.profile.input_bytes

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _make_runtime(self, process: SimProcess) -> FunctionRuntime:
        """Build the language runtime hosting the function."""
        return build_runtime(self.profile, process, self.rng)

    def _prepare(self) -> Tuple[float, int]:
        """One-time preparation after the warm-up (snapshot, checkpoint...).

        Returns ``(seconds, pages_captured)``.
        """
        return 0.0, 0

    def _pre_invoke(self, caller: Optional[str] = None) -> float:
        """Critical-path work before the function runs (fork, waiting...)."""
        return 0.0

    def _run(self, payload: bytes, request_id: str) -> Tuple[InvocationResult, float]:
        """Execute the request; returns the result and extra relay seconds."""
        assert self.runtime is not None
        return self.runtime.invoke(payload, request_id), 0.0

    def _post_invoke(
        self, result: InvocationResult, *, caller: Optional[str], verify: bool
    ) -> Tuple[float, Optional[RestoreResult], bool]:
        """Post-response work; returns ``(seconds, restore_result, skipped)``."""
        return 0.0, None, False

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _base_relay_seconds(self, input_bytes: int, output_bytes: int) -> float:
        """Cost of the platform proxy <-> runtime pipes (present everywhere)."""
        cm = self.cost_model
        return (
            2 * cm.pipe_message_seconds
            + (input_bytes + output_bytes) * cm.pipe_copy_per_byte_seconds
        )

    def read_request_buffer(self) -> bytes:
        """Content of the function's global request buffer (leak probe)."""
        if self.runtime is None:
            raise IsolationError(f"{self.name}: container not initialised")
        return self.runtime.read_request_buffer()


class GroundhogMechanism(IsolationMechanism):
    """Groundhog: lightweight in-memory snapshot/restore between requests."""

    name = "gh"
    provides_isolation = True
    interposes = True

    def __init__(
        self,
        profile: FunctionProfile,
        *,
        tracker: str = "soft-dirty",
        skip_rollback_for_same_caller: bool = False,
        verify_restores: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(profile, **kwargs)
        if tracker not in ("soft-dirty", "uffd"):
            raise ValueError(f"unknown tracker {tracker!r}")
        self._tracker_kind = tracker
        self.skip_rollback_for_same_caller = skip_rollback_for_same_caller
        self.verify_restores = verify_restores
        self.manager: Optional[GroundhogManager] = None

    # -- initialisation -------------------------------------------------

    def _prepare(self) -> Tuple[float, int]:
        assert self.runtime is not None and self.process is not None
        procfs = ProcFs(self.process)
        tracker: WriteSetTracker
        if self._tracker_kind == "uffd":
            tracker = UffdWriteTracker(procfs)
        else:
            tracker = SoftDirtyTracker(procfs)
        self.manager = GroundhogManager(self.runtime, tracker=tracker)
        stats = self.manager.take_snapshot()
        return stats.total_seconds, stats.pages_captured

    # -- invocation -----------------------------------------------------

    def _pre_invoke(self, caller: Optional[str] = None) -> float:
        """Deferred-rollback handling for the §4.4 skip-rollback optimisation.

        When ``skip_rollback_for_same_caller`` is enabled, restoration is
        deferred until the next request arrives: if that request comes from
        the same caller (same security domain) the rollback is skipped
        entirely, otherwise it happens here — on the critical path of the
        first request after a caller change.
        """
        if not self.skip_rollback_for_same_caller or self.manager is None:
            return 0.0
        if self.manager.is_clean:
            return 0.0
        if caller is not None and caller == self._previous_caller:
            self.manager.skip_restore()
            return 0.0
        restore = self.manager.restore(verify=self.verify_restores)
        return restore.total_seconds

    def _run(self, payload: bytes, request_id: str) -> Tuple[InvocationResult, float]:
        assert self.manager is not None
        managed: ManagedInvocation = self.manager.handle_request(payload, request_id)
        return managed.result, managed.interposition_seconds

    def _post_invoke(
        self, result: InvocationResult, *, caller: Optional[str], verify: bool
    ) -> Tuple[float, Optional[RestoreResult], bool]:
        assert self.manager is not None
        if self.skip_rollback_for_same_caller:
            # Rollback is deferred to the next request's arrival (see
            # ``_pre_invoke``), where it can be skipped if the caller did
            # not change.
            return 0.0, None, True
        restore = self.manager.restore(verify=verify or self.verify_restores)
        return restore.total_seconds, restore, False

    # -- introspection ---------------------------------------------------

    @property
    def snapshot_stats(self) -> SnapshotStats:
        """Timing of the one-time clean snapshot."""
        if self.manager is None:
            raise IsolationError("gh: container not initialised")
        return self.manager.snapshot_stats


class GroundhogNopMechanism(GroundhogMechanism):
    """Groundhog with restoration disabled (the GH-NOP configuration).

    Tracks and interposes exactly like GH but never rolls state back,
    isolating the cost of tracking + interposition from the cost of
    restoration (§5.1) — and modelling the skip-rollback optimisation for
    mutually trusting consecutive callers (§4.4).
    """

    name = "gh-nop"
    provides_isolation = False

    def _post_invoke(
        self, result: InvocationResult, *, caller: Optional[str], verify: bool
    ) -> Tuple[float, Optional[RestoreResult], bool]:
        assert self.manager is not None
        self.manager.skip_restore()
        return 0.0, None, True
