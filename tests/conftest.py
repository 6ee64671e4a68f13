"""Shared fixtures for the test suite.

Most tests use deliberately small function profiles so that whole containers
(including snapshots and restores) can be exercised in milliseconds of real
time while still covering every code path the full-size benchmarks use.

The reference models in ``tests/property/`` (``reference_space``,
``reference_routing``) are importable by name from every suite.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro.kernel.kernel import SimKernel
from repro.proc.process import SimProcess
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.costs import CostModel

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "property"))


@pytest.fixture
def cost_model() -> CostModel:
    """The default calibrated cost model."""
    return CostModel()


@pytest.fixture
def kernel(cost_model: CostModel) -> SimKernel:
    """A fresh simulated kernel."""
    return SimKernel(cost_model)


@pytest.fixture
def process(kernel: SimKernel) -> SimProcess:
    """A fresh, started process with an empty address space."""
    proc = kernel.create_process("test-fn")
    proc.start()
    return proc


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for runtime jitter."""
    return random.Random(1234)


@pytest.fixture
def small_python_profile() -> FunctionProfile:
    """A small Python function profile (fast to snapshot/restore in tests)."""
    return FunctionProfile(
        name="unit-python",
        language=Language.PYTHON,
        suite="unit",
        exec_seconds=0.010,
        total_kpages=1.2,
        dirtied_kpages=0.15,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=4,
        input_bytes=128,
        output_bytes=256,
        threads=1,
        init_fraction=0.7,
    )


@pytest.fixture
def small_c_profile() -> FunctionProfile:
    """A small native C function profile."""
    return FunctionProfile(
        name="unit-c",
        language=Language.C,
        suite="unit",
        exec_seconds=0.004,
        total_kpages=0.5,
        dirtied_kpages=0.05,
        regions_mapped_per_invocation=0,
        regions_unmapped_per_invocation=0,
        heap_growth_pages=0,
        threads=1,
        init_fraction=1.0,
    )


@pytest.fixture
def small_node_profile() -> FunctionProfile:
    """A small Node.js function profile (multi-threaded, layout churn)."""
    return FunctionProfile(
        name="unit-node",
        language=Language.NODE,
        suite="unit",
        exec_seconds=0.015,
        total_kpages=3.0,
        dirtied_kpages=0.4,
        regions_mapped_per_invocation=2,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=8,
        threads=5,
        init_fraction=0.8,
        wasm_compatible=False,
        restore_gc_seconds=0.004,
        restore_gc_probability=0.5,
    )


@pytest.fixture
def leaky_profile() -> FunctionProfile:
    """A profile with a memory leak (models the logging benchmark)."""
    return FunctionProfile(
        name="unit-leaky",
        language=Language.PYTHON,
        suite="unit",
        exec_seconds=0.010,
        total_kpages=1.0,
        dirtied_kpages=0.1,
        heap_growth_pages=2,
        threads=1,
        leak_pages_per_invocation=16,
        leak_slowdown_seconds_per_kpage=0.5,
    )
