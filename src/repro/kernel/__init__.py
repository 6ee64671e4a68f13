"""Kernel facade: process table, fault accounting, userfaultfd tracking."""

from repro.kernel.kernel import SimKernel
from repro.kernel.faults import FaultRecord
from repro.kernel.uffd import UffdTracker

__all__ = ["SimKernel", "FaultRecord", "UffdTracker"]
