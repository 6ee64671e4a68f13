"""Simulated processes.

A :class:`SimProcess` bundles an address space, one or more threads, the
stdin/stdout pipes the FaaS proxy uses, and a process lifecycle.  It is the
unit Groundhog snapshots and restores.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ProcessStateError
from repro.mem.address_space import AddressSpace
from repro.proc.pipes import Pipe
from repro.proc.registers import RegisterSet
from repro.proc.thread import SimThread
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL

_pid_counter = itertools.count(1000)  # detlint: ignore[D005] unique-pid mint; pids are labels, never ordering inputs


def _next_pid() -> int:
    return next(_pid_counter)


class ProcessState(enum.Enum):
    """Lifecycle state of a simulated process."""

    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"  # all threads ptrace-stopped
    EXITED = "exited"


class SimProcess:
    """A simulated OS process: threads + address space + pipes."""

    def __init__(
        self,
        name: str = "function",
        *,
        cost_model: Optional[CostModel] = None,
        address_space: Optional[AddressSpace] = None,
        pid: Optional[int] = None,
        uid: int = 0,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.pid = pid if pid is not None else _next_pid()
        self.name = name
        self.uid = uid
        self.address_space = (
            address_space if address_space is not None else AddressSpace(self.cost_model)
        )
        self.state = ProcessState.CREATED
        self.stdin = Pipe(f"{name}.stdin", self.cost_model)
        self.stdout = Pipe(f"{name}.stdout", self.cost_model)
        self.stderr = Pipe(f"{name}.stderr", self.cost_model)
        self._threads: Dict[int, SimThread] = {}
        #: The live threads in creation order; only ``spawn_thread`` and
        #: ``exit`` change which threads are live.
        self._live: Tuple[SimThread, ...] = ()
        self._tid_counter = itertools.count(self.pid)
        self.exit_code: Optional[int] = None

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    @property
    def threads(self) -> Tuple[SimThread, ...]:
        """All live (non-exited) threads, in creation order."""
        return self._live

    @property
    def num_threads(self) -> int:
        """Number of live threads."""
        return len(self._live)

    @property
    def main_thread(self) -> SimThread:
        """The first (main) thread."""
        if not self._threads:
            raise ProcessStateError(f"process {self.pid} has no threads")
        return self._threads[min(self._threads)]

    def spawn_thread(self, name: str = "", registers: Optional[RegisterSet] = None) -> SimThread:
        """Create a new thread in this process."""
        if self.state is ProcessState.EXITED:
            raise ProcessStateError(f"process {self.pid} has exited")
        tid = next(self._tid_counter)
        thread = SimThread(
            tid=tid,
            name=name or f"{self.name}-t{tid}",
            registers=registers if registers is not None else RegisterSet.initial(),
        )
        self._threads[tid] = thread
        self._live += (thread,)
        return thread

    def thread(self, tid: int) -> SimThread:
        """Return the thread with id ``tid``."""
        if tid not in self._threads:
            raise ProcessStateError(f"process {self.pid} has no thread {tid}")
        return self._threads[tid]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Move the process into the RUNNING state (after exec)."""
        if self.state is ProcessState.EXITED:
            raise ProcessStateError("cannot start an exited process")
        if not self._threads:
            self.spawn_thread(name=f"{self.name}-main")
        self.state = ProcessState.RUNNING
        for thread in self.threads:
            thread.resume()

    def stop_all_threads(self) -> int:
        """Stop every live thread (ptrace interrupt); returns the count."""
        if self.state is ProcessState.EXITED:
            raise ProcessStateError("cannot stop an exited process")
        count = 0
        for thread in self.threads:
            thread.stop()
            count += 1
        self.state = ProcessState.STOPPED
        return count

    def resume_all_threads(self) -> int:
        """Resume every live thread; returns the count."""
        if self.state is ProcessState.EXITED:
            raise ProcessStateError("cannot resume an exited process")
        count = 0
        for thread in self.threads:
            thread.resume()
            count += 1
        self.state = ProcessState.RUNNING
        return count

    def exit(self, code: int = 0) -> None:
        """Terminate the process."""
        for thread in self.threads:
            thread.exit()
        self._live = ()
        self.exit_code = code
        self.state = ProcessState.EXITED

    @property
    def is_alive(self) -> bool:
        """True unless the process has exited."""
        return self.state is not ProcessState.EXITED

    @property
    def is_stopped(self) -> bool:
        """True if every live thread is ptrace-stopped."""
        live = self.threads
        return bool(live) and all(t.is_stopped for t in live)

    def drop_privileges(self, uid: int) -> None:
        """Model the manager dropping the function process's privileges (§4.1)."""
        if uid <= 0:
            raise ValueError("dropped-privilege uid must be positive")
        self.uid = uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimProcess(pid={self.pid}, name={self.name!r}, state={self.state.value}, "
            f"threads={self.num_threads})"
        )
