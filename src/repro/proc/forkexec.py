"""fork() of simulated processes.

Used in two places:

* the Groundhog manager forks and execs the function runtime when a
  container starts (§4.1) — modelled by the runtime models directly, and
* the FORK baseline (§5.2.3, §5.3.2), which serves each request in a child
  forked from the warm, initialised process and discards the child
  afterwards.  Fork only captures single-threaded processes, the key
  generality limitation the paper calls out (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProcessStateError, UnsupportedRuntimeError
from repro.proc.process import SimProcess
from repro.proc.registers import RegisterSet


@dataclass(frozen=True)
class ForkResult:
    """The forked child plus the time the fork itself took."""

    child: SimProcess
    cost_seconds: float


def fork_process(parent: SimProcess, *, require_single_threaded: bool = True) -> ForkResult:
    """Fork ``parent``, returning a copy-on-write child.

    With ``require_single_threaded`` (the default, matching real ``fork``
    semantics for this use case) a multi-threaded parent raises
    :class:`~repro.errors.UnsupportedRuntimeError`: only the calling thread
    survives in the child, so the forked copy of a multi-threaded runtime
    would be broken — precisely why the paper's FORK baseline cannot cover
    Node.js (§5.3.2).
    """
    if not parent.is_alive:
        raise ProcessStateError("cannot fork an exited process")
    if require_single_threaded and parent.num_threads > 1:
        raise UnsupportedRuntimeError(
            f"fork-based isolation cannot capture the {parent.num_threads} threads "
            f"of process {parent.name!r}"
        )

    child_space = parent.address_space.fork()
    child = SimProcess(
        name=parent.name + "-child",
        cost_model=parent.cost_model,
        address_space=child_space,
        uid=parent.uid,
    )
    # The child starts with a single thread whose registers mirror the
    # parent's calling thread at the fork point.
    parent_regs: RegisterSet = parent.main_thread.get_registers()
    child.spawn_thread(name=child.name + "-main", registers=parent_regs)
    child.start()

    cm = parent.cost_model
    cost = cm.fork_base_seconds + len(parent.address_space.vmas) * cm.fork_per_vma_seconds
    return ForkResult(child=child, cost_seconds=cost)
