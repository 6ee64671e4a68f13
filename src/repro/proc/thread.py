"""Simulated threads.

A function process may host a multi-threaded language runtime (Node.js's
worker and GC threads, CPython's single main thread, native C's main
thread).  Groundhog must interrupt, snapshot and restore *every* thread —
the reason a plain ``fork`` cannot capture the state of such processes
(§3.2).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import ProcessStateError
from repro.proc.registers import RegisterSet


class ThreadState(enum.Enum):
    """Run state of a simulated thread."""

    RUNNING = "running"
    STOPPED = "stopped"  # stopped by ptrace
    EXITED = "exited"


class SimThread:
    """One thread of a simulated process.

    Its register file advances by count.  The thread keeps the register
    file it last materialised plus the instructions and stack delta run
    since; :meth:`run_instructions` only adds to those counts, and a read
    (:attr:`registers`, :meth:`get_registers`: snapshot, fork and restore
    verification) applies them with one :meth:`RegisterSet.advanced`
    call.  That is bit-exact, since ``advanced`` moves rip and rsp by
    integer sums and rax and rcx by sums mod 2**64.  A warm request whose
    registers nobody reads (every request under ``base``; under ``gh`` the
    restore overwrites them) builds no register file at all.
    """

    __slots__ = ("tid", "name", "state", "_base", "_instructions", "_stack_delta")

    def __init__(
        self,
        tid: int,
        name: str = "",
        registers: Optional[RegisterSet] = None,
        state: ThreadState = ThreadState.RUNNING,
    ) -> None:
        self.tid = tid
        self.name = name
        self.state = state
        self._base = registers if registers is not None else RegisterSet.initial()
        self._instructions = 0
        self._stack_delta = 0

    def stop(self) -> None:
        """Stop the thread (ptrace interrupt)."""
        if self.state is ThreadState.EXITED:
            raise ProcessStateError(f"thread {self.tid} has exited")
        self.state = ThreadState.STOPPED

    def resume(self) -> None:
        """Resume the thread after a ptrace stop."""
        if self.state is ThreadState.EXITED:
            raise ProcessStateError(f"thread {self.tid} has exited")
        self.state = ThreadState.RUNNING

    def exit(self) -> None:
        """Mark the thread as exited."""
        self.state = ThreadState.EXITED

    @property
    def is_stopped(self) -> bool:
        """True if the thread is currently ptrace-stopped."""
        return self.state is ThreadState.STOPPED

    @property
    def registers(self) -> RegisterSet:
        """The thread's register file, with the code run since applied."""
        if self._instructions or self._stack_delta:
            self._base = self._base.advanced(self._instructions, self._stack_delta)
            self._instructions = 0
            self._stack_delta = 0
        return self._base

    def get_registers(self) -> RegisterSet:
        """Return the thread's registers (``PTRACE_GETREGS``)."""
        return self.registers

    def set_registers(self, registers: RegisterSet) -> None:
        """Overwrite the thread's registers (``PTRACE_SETREGS``)."""
        self._base = registers
        self._instructions = 0
        self._stack_delta = 0

    def run_instructions(self, instructions: int, stack_delta: int = 0) -> None:
        """Advance the register file as if the thread executed some code."""
        if self.state is not ThreadState.RUNNING:
            raise ProcessStateError(
                f"thread {self.tid} cannot execute while {self.state.value}"
            )
        self._instructions += instructions
        self._stack_delta += stack_delta
