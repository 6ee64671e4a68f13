"""Per-request fault counts and the one place they are priced.

The address space counts faults by kind on its
:class:`~repro.mem.address_space.MemoryMeter`; a :class:`FaultRecord` holds
one request's counts and prices them under a cost model.  Requests
(:class:`~repro.runtime.base.InvocationResult`'s ``fault_seconds``) and
cluster restores (:mod:`repro.faas.restorecost`) both take their fault time
from it, and it also says *why* a configuration is slower on the critical
path (e.g. Table 3's ``#faults`` column and the Fig. 3 discussion of
soft-dirty vs copy-on-write fault costs).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.mem.address_space import MeterSnapshot
from repro.sim.costs import CostModel


class FaultRecord(NamedTuple):
    """Aggregate fault counts attributable to one invocation, and their price.

    :meth:`cost_seconds` is the only pricing of faults: a request's fault
    time is its record's cost, so identical requests report identical
    times.  Every request that faults builds one, so it is a named tuple,
    like the :class:`~repro.runtime.base.InvocationResult` that carries it.
    """

    minor: int = 0
    soft_dirty: int = 0
    cow: int = 0
    uffd: int = 0
    first_touch: int = 0

    @classmethod
    def from_meter(cls, delta: MeterSnapshot) -> "FaultRecord":
        """Build a record from a meter delta (a delta without faults shares one)."""
        if not (
            delta.minor_faults
            or delta.soft_dirty_faults
            or delta.cow_faults
            or delta.uffd_faults
            or delta.first_touch_faults
        ):
            return NO_FAULTS
        return cls(
            minor=delta.minor_faults,
            soft_dirty=delta.soft_dirty_faults,
            cow=delta.cow_faults,
            uffd=delta.uffd_faults,
            first_touch=delta.first_touch_faults,
        )

    @property
    def total(self) -> int:
        """All faults of any kind."""
        return self.minor + self.soft_dirty + self.cow + self.uffd + self.first_touch

    def cost_seconds(self, cost_model: CostModel) -> float:
        """Total critical-path cost these faults imply under ``cost_model``.

        Five products added in a fixed order: the same counts give the same
        bits on every Python version.
        """
        return (
            self.minor * cost_model.minor_fault_seconds
            + self.soft_dirty * cost_model.soft_dirty_fault_seconds
            + self.cow * cost_model.cow_fault_seconds
            + self.uffd * cost_model.uffd_fault_seconds
            + self.first_touch * cost_model.fork_first_touch_seconds
        )


#: The record of a request that took no fault; records are immutable, so
#: every such request shares it.
NO_FAULTS = FaultRecord()
