"""ptrace: the process-control interface Groundhog orchestrates with.

Groundhog uses ptrace for three things (§4.2, §4.4):

* **interrupting** every thread of the function process so its state is
  quiescent while it is snapshotted or restored,
* **reading and writing registers** of every thread,
* **injecting syscalls** (``brk``, ``mmap``, ``munmap``, ``mprotect``,
  ``madvise``) into the stopped process to reverse memory-layout changes.

:class:`Ptrace` provides exactly these operations over a
:class:`~repro.proc.process.SimProcess`, returning the simulated cost of
each step so the restorer's breakdown (Fig. 8) is derived from what it
actually did.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Tuple

from repro.errors import PtraceError, SyscallInjectionError
from repro.mem.page import Protection
from repro.mem.vma import VmaKind
from repro.proc.process import ProcessState, SimProcess
from repro.proc.registers import RegisterSet


class InjectedSyscall(NamedTuple):
    """A syscall to execute inside the tracee.

    ``name`` is the syscall name (kept symbolic for readability); ``args``
    are interpreted per syscall by :meth:`Ptrace.inject_syscall`.  A
    restore plans a few per request, so it is a named tuple.
    """

    name: str
    args: Tuple[object, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({rendered})"


class Ptrace:
    """A ptrace session between the Groundhog manager and one tracee."""

    def __init__(self, process: SimProcess) -> None:
        self._process = process
        self._attached = False

    @property
    def process(self) -> SimProcess:
        """The tracee."""
        return self._process

    @property
    def attached(self) -> bool:
        """True while a PTRACE_SEIZE is in effect."""
        return self._attached

    # ------------------------------------------------------------------
    # Attach / interrupt / resume / detach
    # ------------------------------------------------------------------

    def seize(self) -> float:
        """Attach to the tracee without stopping it (``PTRACE_SEIZE``)."""
        if self._attached:
            raise PtraceError("already attached")
        if not self._process.is_alive:
            raise PtraceError("cannot attach to an exited process")
        self._attached = True
        return 15e-6

    def interrupt_all(self) -> float:
        """Stop every thread of the tracee; returns the time it took."""
        self._require_attached()
        count = self._process.stop_all_threads()
        return count * self._process.cost_model.ptrace_interrupt_seconds

    def resume_all(self) -> float:
        """Resume every thread after a stop."""
        self._require_attached()
        count = self._process.resume_all_threads()
        return count * (self._process.cost_model.ptrace_interrupt_seconds * 0.25)

    def detach(self) -> float:
        """Detach from the tracee; it keeps running."""
        self._require_attached()
        self._attached = False
        live_threads = self._process.num_threads
        return live_threads * self._process.cost_model.ptrace_detach_seconds

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------

    def get_registers(self) -> Tuple[Dict[int, RegisterSet], float]:
        """Read the register file of every stopped thread."""
        self._require_stopped()
        registers = {t.tid: t.get_registers() for t in self._process.threads}
        cost = len(registers) * self._process.cost_model.ptrace_getset_regs_seconds
        return registers, cost

    def set_registers(self, registers: Mapping[int, RegisterSet]) -> float:
        """Write register files back into the tracee's threads.

        Threads present in the snapshot but no longer alive are skipped —
        Groundhog restores the threads that exist; function runtimes are not
        expected to tear down their worker threads mid-request.
        """
        self._require_stopped()
        written = 0
        for thread in self._process.threads:
            if thread.tid in registers:
                thread.set_registers(registers[thread.tid])
                written += 1
        return written * self._process.cost_model.ptrace_getset_regs_seconds

    # ------------------------------------------------------------------
    # Memory access (PTRACE_PEEKDATA / /proc/<pid>/mem)
    # ------------------------------------------------------------------

    def peek_page(self, page_number: int) -> Tuple[bytes, float]:
        """Read one page of tracee memory."""
        self._require_stopped()
        content = self._process.address_space.kernel_read_page(page_number)
        return content, self._process.cost_model.page_copy_seconds

    def poke_page(self, page_number: int, data: bytes) -> float:
        """Write one page of tracee memory."""
        self._require_stopped()
        self._process.address_space.kernel_write_page(page_number, data)
        return self._process.cost_model.page_copy_seconds

    # ------------------------------------------------------------------
    # Syscall injection
    # ------------------------------------------------------------------

    def inject_syscall(self, call: InjectedSyscall) -> float:
        """Execute one syscall inside the stopped tracee.

        Supported syscalls and their argument shapes:

        * ``("mmap", (address, length, prot, kind, name))`` — map anonymous
          memory at a fixed address,
        * ``("munmap", (address, length))``,
        * ``("mprotect", (address, length, prot))``,
        * ``("madvise_dontneed", (address, length))``,
        * ``("brk", (new_brk,))``.
        """
        self._require_stopped()
        space = self._process.address_space
        try:
            if call.name == "mmap":
                address, length, prot, kind, name = call.args
                space.mmap(
                    length,
                    prot,
                    address=address,
                    kind=kind if isinstance(kind, VmaKind) else VmaKind.ANON,
                    name=name,
                )
            elif call.name == "munmap":
                address, length = call.args
                space.munmap(address, length)
            elif call.name == "mprotect":
                address, length, prot = call.args
                space.mprotect(address, length, prot)
            elif call.name == "madvise_dontneed":
                address, length = call.args
                space.madvise_dontneed(address, length)
            elif call.name == "brk":
                (new_brk,) = call.args
                space.set_brk(new_brk)
            else:
                raise SyscallInjectionError(f"unsupported injected syscall {call.name!r}")
        except SyscallInjectionError:
            raise
        except Exception as exc:  # surface substrate errors with context
            raise SyscallInjectionError(f"injected {call} failed: {exc}") from exc
        return self._process.cost_model.syscall_injection_seconds

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_attached(self) -> None:
        if not self._attached:
            raise PtraceError("not attached to the tracee")
        if not self._process.is_alive:
            raise PtraceError("tracee has exited")

    def _require_stopped(self) -> None:
        self._require_attached()
        if self._process.state is not ProcessState.STOPPED:
            raise PtraceError("tracee must be stopped for this operation")
