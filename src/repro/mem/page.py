"""Page protections and payloads for the simulated address space.

Payloads are logical: a page holds whatever ``bytes`` the writer supplied
rather than a full 4 KiB buffer, and an untouched page reads as
:data:`ZERO_CONTENT`.  Isolation properties are still checked on real bytes
(a secret written during a request is physically present in the address
space until it is restored), but the simulator does not pay for 4 KiB of
storage per page.  The per-page state itself (residency, soft-dirty,
copy-on-write, write-protect and TLB-cold bits, payload runs) is kept per
VMA by :class:`~repro.mem.address_space.AddressSpace`.
"""

from __future__ import annotations

import enum


class Protection(enum.Flag):
    """Page protection bits, mirroring ``PROT_READ``/``WRITE``/``EXEC``."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @classmethod
    def rw(cls) -> "Protection":
        """Shorthand for readable + writable anonymous memory."""
        return _RW

    @classmethod
    def rx(cls) -> "Protection":
        """Shorthand for read + execute (text segments)."""
        return _RX

    @classmethod
    def r(cls) -> "Protection":
        """Shorthand for read-only mappings."""
        return cls.READ

    def describe(self) -> str:
        """Render like the perms column of ``/proc/<pid>/maps``."""
        return "".join(
            [
                "r" if Protection.READ in self else "-",
                "w" if Protection.WRITE in self else "-",
                "x" if Protection.EXEC in self else "-",
            ]
        )


#: The two protection unions, built once: a ``Flag`` union is a call.
_RW = Protection.READ | Protection.WRITE
_RX = Protection.READ | Protection.EXEC

#: Payload representing an untouched, zero-filled page.
ZERO_CONTENT = b""
