"""Simulated kernel facade: process table and global accounting.

The :class:`SimKernel` owns the processes of one invoker host.  It hands out
pids, tracks which processes exist (so ``/proc`` accesses to dead processes
fail the way they should), and counts the processes it created, forked and
reaped (:class:`KernelStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import NoSuchProcessError
from repro.proc.forkexec import ForkResult, fork_process
from repro.proc.process import SimProcess
from repro.proc.procfs import ProcFs
from repro.proc.ptrace import Ptrace
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL


@dataclass
class KernelStats:
    """Aggregate counters across all processes ever hosted."""

    processes_created: int = 0
    processes_exited: int = 0
    forks: int = 0

    def snapshot(self) -> "KernelStats":
        """Return a copy of the current counters."""
        return KernelStats(
            processes_created=self.processes_created,
            processes_exited=self.processes_exited,
            forks=self.forks,
        )


class SimKernel:
    """The kernel of one simulated invoker host."""

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self._processes: Dict[int, SimProcess] = {}
        self.stats = KernelStats()

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def create_process(self, name: str, uid: int = 0) -> SimProcess:
        """Create a new process in the CREATED state."""
        process = SimProcess(name=name, cost_model=self.cost_model, uid=uid)
        self._processes[process.pid] = process
        self.stats.processes_created += 1
        return process

    def fork(self, parent: SimProcess, *, require_single_threaded: bool = True) -> ForkResult:
        """Fork ``parent`` and register the child."""
        result = fork_process(parent, require_single_threaded=require_single_threaded)
        self._processes[result.child.pid] = result.child
        self.stats.forks += 1
        self.stats.processes_created += 1
        return result

    def reap(self, process: SimProcess) -> None:
        """Terminate and remove a process."""
        if process.pid not in self._processes:
            raise NoSuchProcessError(process.pid)
        if process.is_alive:
            process.exit()
        del self._processes[process.pid]
        self.stats.processes_exited += 1

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid."""
        if pid not in self._processes:
            raise NoSuchProcessError(pid)
        return self._processes[pid]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def procfs(self, process: SimProcess) -> ProcFs:
        """Return a ``/proc`` view of ``process``."""
        if process.pid not in self._processes:
            raise NoSuchProcessError(process.pid)
        return ProcFs(process)

    def ptrace(self, process: SimProcess) -> Ptrace:
        """Return a ptrace session for ``process``."""
        if process.pid not in self._processes:
            raise NoSuchProcessError(process.pid)
        return Ptrace(process)
