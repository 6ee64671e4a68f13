"""Tests for the function profiles and language-runtime models."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.baselines.registry import create_mechanism
from repro.config import PAGE_SIZE
from repro.errors import (
    RuntimeModelError,
    SegmentationFault,
    UnsupportedRuntimeError,
    WorkloadError,
)
from repro.kernel.faults import NO_FAULTS, FaultRecord
from repro.mem.page import Protection
from repro.proc.process import SimProcess
from repro.runtime import build_runtime
from repro.runtime.base import FunctionRuntime
from repro.runtime.native import NativeRuntime
from repro.runtime.node_rt import NodeRuntime
from repro.runtime.profiles import FunctionProfile, Language
from repro.runtime.python_rt import PythonRuntime
from repro.runtime.wasm import WasmRuntime, wasm_execution_factor
from repro.sim.costs import CostModel
from repro.workloads import microbenchmark_profile


class TestFunctionProfile:
    def test_qualified_name_uses_language_suffix(self, small_python_profile):
        assert small_python_profile.qualified_name == "unit-python (p)"

    def test_derived_page_counts(self, small_python_profile):
        assert small_python_profile.total_pages == 1200
        assert small_python_profile.dirtied_pages == 150

    def test_default_read_pages_scale_with_write_set(self, small_python_profile):
        assert small_python_profile.read_pages >= small_python_profile.dirtied_pages

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"exec_seconds": 0},
            {"total_kpages": 0},
            {"dirtied_kpages": -1},
            {"dirtied_kpages": 99.0},
            {"init_fraction": 0.0},
            {"init_fraction": 1.5},
            {"threads": 0},
            {"restore_gc_probability": 2.0},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        base = dict(name="bad", language=Language.C, exec_seconds=0.01,
                    total_kpages=1.0, dirtied_kpages=0.1)
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            FunctionProfile(**base)

    def test_scaled_profile_scales_memory_only(self, small_python_profile):
        scaled = small_python_profile.scaled(2.0)
        assert scaled.total_kpages == pytest.approx(2.4)
        assert scaled.exec_seconds == small_python_profile.exec_seconds

    def test_scaled_rejects_nonpositive(self, small_python_profile):
        with pytest.raises(WorkloadError):
            small_python_profile.scaled(0)


class TestRuntimeFactory:
    def test_language_dispatch(self, small_python_profile, small_c_profile, small_node_profile):
        assert isinstance(build_runtime(small_python_profile, SimProcess("a")), PythonRuntime)
        assert isinstance(build_runtime(small_c_profile, SimProcess("b")), NativeRuntime)
        assert isinstance(build_runtime(small_node_profile, SimProcess("c")), NodeRuntime)

    def test_wasm_flag_builds_wasm_runtime(self, small_c_profile):
        runtime = build_runtime(small_c_profile, SimProcess("d"), wasm=True)
        assert isinstance(runtime, WasmRuntime)

    def test_wasm_rejects_incompatible_profile(self, small_node_profile):
        with pytest.raises(UnsupportedRuntimeError):
            build_runtime(small_node_profile, SimProcess("e"), wasm=True)


class TestRuntimeLifecycle:
    def _runtime(self, profile):
        return build_runtime(profile, SimProcess(profile.name), random.Random(0))

    def test_boot_maps_roughly_the_profile_footprint(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        runtime.warm()
        mapped = runtime.process.address_space.total_mapped_pages
        assert mapped == pytest.approx(small_python_profile.total_pages, rel=0.25)

    def test_warm_before_boot_rejected(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        with pytest.raises(RuntimeModelError):
            runtime.warm()

    def test_invoke_before_warm_rejected(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        with pytest.raises(RuntimeModelError):
            runtime.invoke(b"x")

    def test_double_boot_rejected(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        with pytest.raises(RuntimeModelError):
            runtime.boot()

    def test_invocation_dirties_roughly_profile_write_set(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        runtime.warm()
        space = runtime.process.address_space
        space.clear_soft_dirty()
        runtime.invoke(b"payload", "r1")
        dirty = len(space.soft_dirty_page_numbers())
        assert dirty == pytest.approx(small_python_profile.dirtied_pages, rel=0.3)

    def test_request_data_lands_in_request_buffer(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        runtime.warm()
        runtime.invoke(b"alice-secret", "r1")
        assert b"alice-secret" in runtime.read_request_buffer()

    def test_residual_exposes_previous_request_without_isolation(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        runtime.warm()
        runtime.invoke(b"alice-secret", "r1")
        second = runtime.invoke(b"bob-data", "r2")
        assert b"alice-secret" in second.residual

    def test_response_digest_follows_the_payload(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        runtime.warm()
        payload = b"same"
        digests = [
            runtime.invoke(body, f"r{index}").response["result"]
            for index, body in enumerate([payload, payload, b"other", bytes(bytearray(payload))])
        ]
        assert digests[0] == digests[1] == digests[3] == hashlib.sha256(payload).hexdigest()[:16]
        assert digests[2] == hashlib.sha256(b"other").hexdigest()[:16]

    def test_fault_free_requests_share_one_zero_record(self, small_c_profile):
        runtime = self._runtime(small_c_profile)
        runtime.boot()
        runtime.warm()
        runtime.invoke(b"a", "r1")
        second = runtime.invoke(b"b", "r2")
        assert second.faults is NO_FAULTS
        assert second.faults == FaultRecord()
        runtime.process.address_space.clear_soft_dirty()
        assert runtime.invoke(b"c", "r3").faults.soft_dirty > 0

    def test_compute_time_tracks_profile(self, small_python_profile):
        runtime = self._runtime(small_python_profile)
        runtime.boot()
        runtime.warm()
        result = runtime.invoke(b"x", "r1")
        assert result.compute_seconds == pytest.approx(
            small_python_profile.exec_seconds, rel=0.2
        )

    def test_native_runtime_is_single_threaded(self, small_c_profile):
        runtime = self._runtime(small_c_profile)
        runtime.boot()
        assert runtime.process.num_threads == 1

    def test_node_runtime_is_multithreaded(self, small_node_profile):
        runtime = self._runtime(small_node_profile)
        runtime.boot()
        assert runtime.process.num_threads >= 5

    def test_node_layout_churn_maps_and_unmaps_regions(self, small_node_profile):
        runtime = self._runtime(small_node_profile)
        runtime.boot()
        runtime.warm()
        before = len(runtime.process.address_space.vmas)
        runtime.invoke(b"x", "r1")
        after = len(runtime.process.address_space.vmas)
        assert after != before or small_node_profile.regions_mapped_per_invocation == 0

    def test_memory_leak_accumulates_and_slows_down(self, leaky_profile):
        runtime = self._runtime(leaky_profile)
        runtime.boot()
        runtime.warm()
        first = runtime.invoke(b"x", "r1").compute_seconds
        for index in range(10):
            last = runtime.invoke(b"x", f"r{index + 2}").compute_seconds
        assert last > first

    def test_reset_logical_state_reverts_leak_counter(self, leaky_profile):
        runtime = self._runtime(leaky_profile)
        runtime.boot()
        runtime.warm()
        runtime.mark_clean_state()
        for index in range(5):
            runtime.invoke(b"x", f"r{index}")
        slowed = runtime.invoke(b"x", "slow").compute_seconds
        runtime.notify_restored()
        recovered = runtime.invoke(b"x", "fast").compute_seconds
        assert recovered < slowed

    def test_node_gc_pause_only_after_restore(self, small_node_profile):
        profile = small_node_profile
        runtime = NodeRuntime(profile, SimProcess("n"), random.Random(1))
        runtime.boot()
        runtime.warm()
        normal = runtime.invoke(b"x", "r1")
        assert normal.gc_pause_seconds == 0.0
        # After a notified restore, a GC pause may occur (probability 0.5);
        # force determinism by running enough trials.
        pauses = []
        for index in range(20):
            runtime.notify_restored()
            pauses.append(runtime.invoke(b"x", f"g{index}").gc_pause_seconds)
        assert any(p > 0 for p in pauses)


class TestWasmRuntime:
    def test_python_runs_slower_under_wasm(self, small_python_profile):
        factor = wasm_execution_factor(small_python_profile, CostModel())
        assert factor > 1.0
        runtime = WasmRuntime(small_python_profile, SimProcess("w"), random.Random(0))
        runtime.boot()
        runtime.warm()
        result = runtime.invoke(b"x", "r1")
        assert result.compute_seconds == pytest.approx(
            small_python_profile.exec_seconds * factor, rel=0.2
        )

    def test_c_runs_faster_under_wasm(self, small_c_profile):
        assert wasm_execution_factor(small_c_profile, CostModel()) < 1.0

    def test_profile_override_wins(self):
        profile = FunctionProfile(
            name="override", language=Language.C, exec_seconds=0.01,
            total_kpages=0.5, dirtied_kpages=0.05, wasm_factor=2.5,
        )
        assert wasm_execution_factor(profile, CostModel()) == 2.5

    def test_node_profile_has_no_wasm_factor(self, small_node_profile):
        with pytest.raises(UnsupportedRuntimeError):
            wasm_execution_factor(small_node_profile, CostModel())


class TestRequestPlan:
    """The request plan re-resolves whenever its handles could be stale.

    Each scenario is served twice: with the plan as shipped, and with a
    plan that re-resolves before every request, which is what looking every
    mapping up per request (the path without a plan) amounts to.  Both must
    agree on every request's outcome and on the final page state.
    """

    def _mechanism(self, profile, name="base"):
        mechanism = create_mechanism(name, profile, rng=random.Random(3))
        mechanism.initialize()
        return mechanism

    def _working(self, mechanism):
        return next(
            vma for vma in mechanism.process.address_space.vmas
            if vma.name.endswith(".working")
        )

    def _serve(self, profile, steps, name="base"):
        """Run ``steps`` (requests as ``None``, else a callable on the mechanism)."""
        mechanism = self._mechanism(profile, name)
        outcomes = []
        for index, step in enumerate(steps):
            if step is not None:
                step(mechanism)
                continue
            try:
                result = mechanism.invoke(f"p{index}".encode(), f"r{index}").result
            except SegmentationFault as fault:
                outcomes.append(("segv", fault.address, fault.access))
                continue
            outcomes.append(
                (result.fault_seconds, result.faults, result.pages_written, result.residual)
            )
        space = mechanism.process.address_space
        pages = [space.page_state(page) for vma in space.vmas for page in vma.pages()]
        return outcomes, pages, space.layout(), space.meter.counters

    def _both(self, monkeypatch, profile, steps, name="base"):
        planned = self._serve(profile, steps, name)
        invoke = FunctionRuntime.invoke

        def invoke_unplanned(runtime, payload, request_id=""):
            runtime._plan.process = None  # forces a fresh resolve
            return invoke(runtime, payload, request_id)

        monkeypatch.setattr(FunctionRuntime, "invoke", invoke_unplanned)
        return planned, self._serve(profile, steps, name)

    def test_read_only_working_set_faults_the_next_request(self):
        profile = microbenchmark_profile(16, 2)
        mechanism = self._mechanism(profile)
        mechanism.invoke(b"a", "r1")
        working = self._working(mechanism)
        mechanism.process.address_space.mprotect(
            working.start, working.length, Protection.r()
        )
        with pytest.raises(SegmentationFault) as raised:
            mechanism.invoke(b"b", "r2")
        assert raised.value.address == working.start
        # The request buffer was written before the fault, as without a plan.
        assert b"REQ:r2:b" in mechanism.read_request_buffer()

    def test_unmap_then_remap_of_the_working_set(self, monkeypatch):
        unmapped = []

        def unmap(mechanism):
            working = self._working(mechanism)
            mechanism.process.address_space.munmap(working.start, working.length)
            unmapped.append(working)

        def remap(mechanism):
            vma = unmapped[-1]
            mechanism.process.address_space.mmap(
                vma.length, vma.prot, kind=vma.kind, name=vma.name, address=vma.start
            )

        # The request in between faults and leaves the plan resolved to
        # "no working mapping"; the remap must be noticed.
        steps = [None, unmap, None, remap, None, None]
        planned, unplanned = self._both(
            monkeypatch, microbenchmark_profile(16, 2), steps
        )
        assert planned == unplanned
        assert planned[0][1][0] == "segv" and planned[0][2][0] != "segv"

    @pytest.mark.parametrize("delta_pages", [6, -2])
    def test_brk_between_requests(self, monkeypatch, small_python_profile, delta_pages):
        def move_break(mechanism):
            mechanism.process.address_space.sbrk(delta_pages * PAGE_SIZE)

        steps = [None, None, move_break, None, None]
        planned, unplanned = self._both(monkeypatch, small_python_profile, steps)
        assert planned == unplanned

    def test_mmap_and_mprotect_between_requests(self, monkeypatch, small_node_profile):
        def remap_working(mechanism):
            working = self._working(mechanism)
            space = mechanism.process.address_space
            space.mprotect(working.start, 2 * PAGE_SIZE, Protection.rw())
            space.mmap(4 * PAGE_SIZE, name="late")

        steps = [None, remap_working, None, None]
        planned, unplanned = self._both(monkeypatch, small_node_profile, steps)
        assert planned == unplanned

    def test_fork_children_charge_their_first_touch_faults(self, monkeypatch):
        profile = microbenchmark_profile(16, 2)
        planned, unplanned = self._both(monkeypatch, profile, [None] * 4, name="fork")
        assert planned == unplanned
        for fault_seconds, faults, pages_written, residual in planned[0]:
            # Every page the request reads or writes is TLB-cold in a fresh
            # child; the written ones are also copied.
            assert faults.first_touch == 1 + profile.read_pages
            assert faults.cow == profile.dirtied_pages
            # Each child starts from the warm parent, never a past request.
            assert residual.startswith(b"REQ:warmup:")
