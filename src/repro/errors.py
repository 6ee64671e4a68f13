"""Exception hierarchy for the Groundhog reproduction.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-hierarchies
mirror the major subsystems: the simulated kernel/memory substrate, the
process/ptrace layer, the FaaS platform, and Groundhog itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class ConfigError(ReproError, ValueError):
    """Raised for an invalid :class:`~repro.config.SimulationConfig` value.

    It is also a :class:`ValueError`, so code that validated configurations
    with ``except ValueError`` keeps working.
    """


# ---------------------------------------------------------------------------
# Simulation substrate
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors in the discrete-event simulation engine."""


class ClockError(SimulationError):
    """Raised when the virtual clock is moved backwards or misused."""


class EventLoopError(SimulationError):
    """Raised when the event loop is used incorrectly (e.g. re-entered)."""


# ---------------------------------------------------------------------------
# Memory substrate
# ---------------------------------------------------------------------------


class MemoryError_(ReproError):
    """Base class for simulated virtual-memory errors.

    The trailing underscore avoids shadowing the builtin ``MemoryError``.
    """


class MappingError(MemoryError_):
    """Raised for invalid mmap/munmap/mprotect/brk operations."""


class SegmentationFault(MemoryError_):
    """Raised on access to an unmapped or protection-violating address."""

    def __init__(self, address: int, access: str = "read") -> None:
        super().__init__(f"segmentation fault: {access} at 0x{address:x}")
        self.address = address
        self.access = access


# ---------------------------------------------------------------------------
# Process substrate
# ---------------------------------------------------------------------------


class ProcessError(ReproError):
    """Base class for simulated process errors."""


class NoSuchProcessError(ProcessError):
    """Raised when a pid does not exist in the simulated process table."""

    def __init__(self, pid: int) -> None:
        super().__init__(f"no such process: pid={pid}")
        self.pid = pid


class ProcessStateError(ProcessError):
    """Raised when an operation is invalid for the process's current state."""


class PtraceError(ProcessError):
    """Raised on invalid ptrace usage (not attached, not stopped, ...)."""


class SyscallInjectionError(PtraceError):
    """Raised when an injected syscall cannot be applied to the tracee."""


# ---------------------------------------------------------------------------
# Runtime / workload layer
# ---------------------------------------------------------------------------


class RuntimeModelError(ReproError):
    """Base class for language-runtime model errors."""


class UnsupportedRuntimeError(RuntimeModelError):
    """Raised when a runtime cannot host a given function profile."""


class WorkloadError(ReproError):
    """Raised for unknown benchmarks or invalid workload parameters."""


# ---------------------------------------------------------------------------
# FaaS platform
# ---------------------------------------------------------------------------


class PlatformError(ReproError):
    """Base class for FaaS-platform errors."""


class ActionNotFoundError(PlatformError):
    """Raised when an invocation names an action that was never deployed."""

    def __init__(self, action: str) -> None:
        super().__init__(f"action not found: {action!r}")
        self.action = action


class ContainerError(PlatformError):
    """Raised when a container is driven through an invalid transition."""


# ---------------------------------------------------------------------------
# Groundhog core
# ---------------------------------------------------------------------------


class IsolationError(ReproError):
    """Base class for request-isolation mechanism errors."""


class SnapshotError(IsolationError):
    """Raised when a snapshot cannot be taken or is inconsistent."""


class RestoreError(IsolationError):
    """Raised when restoration fails or verification detects residual state."""

