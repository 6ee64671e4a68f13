"""Per-thread register files.

Groundhog saves every thread's CPU state with ``PTRACE_GETREGS`` when it
snapshots the function process and writes it back with ``PTRACE_SETREGS``
during restoration.  The simulated :class:`RegisterSet` keeps the registers
that matter for the reproduction (instruction/stack pointers and a few
general-purpose registers) as plain integers so snapshots can be compared
for equality in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

#: The registers modelled per thread.  A subset of x86-64 is enough: what
#: matters is that the values change during execution and are restored
#: exactly during rollback.
GENERAL_REGISTERS: Tuple[str, ...] = (
    "rip",
    "rsp",
    "rbp",
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
    "eflags",
)

#: Registers are 64 bits wide.
_WORD = 0xFFFFFFFFFFFFFFFF
#: The registers :meth:`RegisterSet.advanced` moves.
_ADVANCED = ("rip", "rsp", "rax", "rcx")


@dataclass(frozen=True)
class RegisterSet:
    """An immutable register file for one thread."""

    values: Tuple[Tuple[str, int], ...] = field(
        default_factory=lambda: tuple((name, 0) for name in GENERAL_REGISTERS)
    )

    @classmethod
    def initial(cls, rip: int = 0x400000, rsp: int = 0x7FFF_F000_0000) -> "RegisterSet":
        """Return a plausible initial register file for a new thread."""
        values = dict.fromkeys(GENERAL_REGISTERS, 0)
        values["rip"] = rip
        values["rsp"] = rsp
        values["rbp"] = rsp
        return cls(values=tuple(values.items()))

    def as_dict(self) -> Dict[str, int]:
        """Return the registers as a mutable dict."""
        return dict(self.values)

    def get(self, name: str) -> int:
        """Return the value of register ``name``."""
        mapping = dict(self.values)
        if name not in mapping:
            raise KeyError(f"unknown register {name!r}")
        return mapping[name]

    def with_updates(self, **updates: int) -> "RegisterSet":
        """Return a copy with the given registers updated."""
        mapping = dict(self.values)
        for name, value in updates.items():
            if name not in mapping:
                raise KeyError(f"unknown register {name!r}")
            mapping[name] = int(value)
        return RegisterSet(values=tuple(mapping.items()))

    def advanced(self, instructions: int, stack_delta: int = 0) -> "RegisterSet":
        """Return a copy that looks like execution made progress.

        Used by the runtime models to make register state visibly change
        during an invocation so restoration has something real to undo.
        ``rip`` and ``rax``/``rcx`` move forward, ``rsp`` down by
        ``stack_delta``; every register keeps its position.
        """
        values = self.values
        if (
            len(values) >= 6
            and values[0][0] == "rip"
            and values[1][0] == "rsp"
            and values[3][0] == "rax"
            and values[5][0] == "rcx"
        ):
            # The order every constructor here produces (GENERAL_REGISTERS).
            rip, rsp, rbp, rax, rbx, rcx = values[:6]
            return RegisterSet(
                values=(
                    ("rip", rip[1] + instructions),
                    ("rsp", rsp[1] - stack_delta),
                    rbp,
                    ("rax", (rax[1] + instructions * 7919) & _WORD),
                    rbx,
                    ("rcx", (rcx[1] + instructions * 104729) & _WORD),
                )
                + values[6:]
            )
        names = {name for name, _ in values}
        for name in _ADVANCED:
            if name not in names:
                raise KeyError(name)
        moved = []
        for name, value in values:
            if name == "rip":
                value += instructions
            elif name == "rsp":
                value -= stack_delta
            elif name == "rax":
                value = (value + instructions * 7919) & _WORD
            elif name == "rcx":
                value = (value + instructions * 104729) & _WORD
            moved.append((name, value))
        return RegisterSet(values=tuple(moved))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterSet):
            return NotImplemented
        return dict(self.values) == dict(other.values)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.values)))
