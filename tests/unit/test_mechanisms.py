"""Tests for the isolation mechanisms (policy layer + baselines)."""

from __future__ import annotations

import random

import pytest

import repro.runtime.base
from repro.baselines.registry import MECHANISMS, create_mechanism, mechanism_class
from repro.errors import IsolationError
from repro.workloads import find_benchmark, microbenchmark_profile


ISOLATING = ("gh", "fork", "faasm", "cold", "criu")
NON_ISOLATING = ("base", "gh-nop")


def _mechanism(name, profile, **kwargs):
    return create_mechanism(name, profile, rng=random.Random(7), **kwargs)


def _supported(profile):
    """The mechanisms that can host ``profile``, as the suite drivers check it."""
    return {name for name, cls in MECHANISMS.items() if cls.supports(profile)}


class TestRegistry:
    def test_all_expected_configurations_registered(self):
        assert set(MECHANISMS) == {"base", "gh", "gh-nop", "fork", "faasm", "cold", "criu"}

    def test_unknown_configuration_rejected(self):
        with pytest.raises(IsolationError):
            mechanism_class("vmm")

    def test_isolation_flags(self):
        for name in ISOLATING:
            assert mechanism_class(name).provides_isolation, name
        for name in NON_ISOLATING:
            assert not mechanism_class(name).provides_isolation, name

    def test_supported_mechanisms_for_node(self, small_node_profile):
        supported = _supported(small_node_profile)
        assert "fork" not in supported
        assert "faasm" not in supported
        assert "gh" in supported and "base" in supported

    def test_supported_mechanisms_for_python(self, small_python_profile):
        supported = _supported(small_python_profile)
        assert set(ISOLATING) <= set(supported) | {"faasm"}
        assert "fork" in supported


class TestInitialization:
    @pytest.mark.parametrize("name", list(MECHANISMS))
    def test_initialize_reports_lifecycle_phases(self, name, small_python_profile):
        mech = _mechanism(name, small_python_profile)
        init = mech.initialize()
        assert init.container_create_seconds > 0
        assert init.boot_seconds > 0
        assert init.warm_seconds > 0
        assert init.total_seconds == pytest.approx(
            init.container_create_seconds + init.boot_seconds
            + init.warm_seconds + init.prepare_seconds
        )
        assert init.mapped_pages > 0

    def test_double_initialize_rejected(self, small_python_profile):
        mech = _mechanism("base", small_python_profile)
        mech.initialize()
        with pytest.raises(IsolationError):
            mech.initialize()

    def test_invoke_before_initialize_rejected(self, small_python_profile):
        mech = _mechanism("gh", small_python_profile)
        with pytest.raises(IsolationError):
            mech.invoke(b"x")

    def test_fork_refuses_node(self, small_node_profile):
        mech = _mechanism("fork", small_node_profile)
        with pytest.raises(IsolationError):
            mech.initialize()

    def test_snapshot_mechanisms_report_prepare_cost(self, small_python_profile):
        for name in ("gh", "gh-nop", "faasm", "criu"):
            mech = _mechanism(name, small_python_profile)
            init = mech.initialize()
            assert init.prepare_seconds > 0, name
            assert init.snapshot_pages > 0, name

    def test_base_has_no_prepare_cost(self, small_python_profile):
        init = _mechanism("base", small_python_profile).initialize()
        assert init.prepare_seconds == 0.0


class TestIsolationProperty:
    @pytest.mark.parametrize("name", ISOLATING)
    def test_isolating_mechanisms_prevent_leaks(self, name, small_python_profile):
        mech = _mechanism(name, small_python_profile)
        if not mech.supports(small_python_profile):
            pytest.skip(f"{name} does not support this profile")
        mech.initialize()
        mech.invoke(b"alice-secret", "r1", caller="alice")
        second = mech.invoke(b"bob-request", "r2", caller="bob")
        assert b"alice-secret" not in second.result.residual

    @pytest.mark.parametrize("name", NON_ISOLATING)
    def test_non_isolating_mechanisms_leak(self, name, small_python_profile):
        mech = _mechanism(name, small_python_profile)
        mech.initialize()
        mech.invoke(b"alice-secret", "r1", caller="alice")
        second = mech.invoke(b"bob-request", "r2", caller="bob")
        assert b"alice-secret" in second.result.residual

    def test_gh_isolates_node_functions(self, small_node_profile):
        mech = _mechanism("gh", small_node_profile)
        mech.initialize()
        mech.invoke(b"alice-secret", "r1", caller="alice")
        second = mech.invoke(b"bob-request", "r2", caller="bob")
        assert b"alice-secret" not in second.result.residual

    def test_gh_verified_restores(self, small_python_profile):
        mech = _mechanism("gh", small_python_profile, verify_restores=True)
        mech.initialize()
        for index in range(4):
            report = mech.invoke(f"secret-{index}".encode(), f"r{index}", caller=f"c{index}")
            assert report.restore is not None and report.restore.verified

    @pytest.mark.parametrize("tracker", ["soft-dirty", "uffd"])
    def test_gh_rolls_back_the_first_request(self, tracker, small_python_profile):
        # The snapshot arms the write-set tracker, so the first request's
        # writes are tracked and restored like every later request's.
        mech = _mechanism("gh", small_python_profile, tracker=tracker, verify_restores=True)
        mech.initialize()
        clean = mech.runtime.read_request_buffer()
        first = mech.invoke(b"alice-secret", "r0", caller="alice")
        assert first.restore is not None and first.restore.verified
        assert first.restore.dirty_pages > 0
        assert mech.runtime.read_request_buffer() == clean
        second = mech.invoke(b"bob-request", "r1", caller="bob")
        assert b"alice-secret" not in second.result.residual

    def test_gh_skip_rollback_for_same_caller(self, small_python_profile):
        mech = _mechanism("gh", small_python_profile, skip_rollback_for_same_caller=True)
        mech.initialize()
        mech.invoke(b"alice-1", "r1", caller="alice")
        # Same caller again: no rollback happened, Alice may see her own
        # earlier data, and no restoration cost was paid.
        same = mech.invoke(b"alice-2", "r2", caller="alice")
        assert same.post_skipped
        assert same.pre_seconds == 0.0 and same.post_seconds == 0.0
        assert b"alice-1" in same.result.residual
        # Caller change: the deferred rollback happens before Bob's request
        # runs (paid on its critical path), so Bob sees nothing of Alice.
        different = mech.invoke(b"bob-1", "r3", caller="bob")
        assert different.pre_seconds > 0.0
        assert b"alice" not in different.result.residual

    def test_gh_nop_never_restores(self, small_python_profile):
        mech = _mechanism("gh-nop", small_python_profile)
        mech.initialize()
        for index in range(3):
            report = mech.invoke(b"x", f"r{index}", caller=f"c{index}")
            assert report.restore is None
            assert report.post_seconds == 0.0


class TestCostShape:
    def test_gh_critical_overhead_small_relative_to_base(self, small_python_profile):
        base = _mechanism("base", small_python_profile)
        base.initialize()
        gh = _mechanism("gh", small_python_profile)
        gh.initialize()
        base_crit = base.invoke(b"x", "r1", caller="a").critical_seconds
        gh.invoke(b"x", "r1", caller="a")
        gh_crit = gh.invoke(b"x", "r2", caller="b").critical_seconds
        # Groundhog adds interposition + soft-dirty faults but stays within a
        # modest factor of the baseline for a 10 ms function.
        assert gh_crit < base_crit * 1.6

    def test_gh_restoration_off_critical_path(self, small_python_profile):
        gh = _mechanism("gh", small_python_profile)
        gh.initialize()
        report = gh.invoke(b"x", "r1", caller="a")
        assert report.post_seconds > 0
        assert report.restore is not None
        assert report.post_seconds == pytest.approx(report.restore.total_seconds)

    def test_fork_pre_invoke_cost_on_critical_path(self, small_python_profile):
        fork = _mechanism("fork", small_python_profile)
        fork.initialize()
        report = fork.invoke(b"x", "r1", caller="a")
        assert report.pre_seconds > 0

    def test_fork_cow_faults_cost_more_than_gh_sd_faults(self, small_c_profile):
        profile = small_c_profile
        fork = _mechanism("fork", profile)
        fork.initialize()
        gh = _mechanism("gh", profile)
        gh.initialize()
        gh.invoke(b"x", "w", caller="a")  # arm tracking effects
        fork_faults = fork.invoke(b"x", "r1", caller="a").result.fault_seconds
        gh_faults = gh.invoke(b"x", "r2", caller="b").result.fault_seconds
        assert fork_faults > gh_faults

    def test_faasm_reset_cheap_and_mostly_size_independent(self, small_python_profile):
        faasm = _mechanism("faasm", small_python_profile)
        faasm.initialize()
        report = faasm.invoke(b"x", "r1", caller="a")
        assert report.post_seconds < 0.01

    def test_faasm_python_executes_slower_than_native(self, small_python_profile):
        base = _mechanism("base", small_python_profile)
        base.initialize()
        faasm = _mechanism("faasm", small_python_profile)
        faasm.initialize()
        base_busy = base.invoke(b"x", "r1", caller="a").result.compute_seconds
        faasm_busy = faasm.invoke(b"x", "r1", caller="a").result.compute_seconds
        assert faasm_busy > base_busy

    def test_coldstart_turnaround_dwarfs_gh_restore(self, small_c_profile):
        gh = _mechanism("gh", small_c_profile)
        gh.initialize()
        cold = _mechanism("cold", small_c_profile)
        cold.initialize()
        gh_post = gh.invoke(b"x", "r1", caller="a").post_seconds
        cold_post = cold.invoke(b"x", "r1", caller="a").post_seconds
        assert cold_post > 50 * gh_post

    def test_criu_restore_orders_of_magnitude_slower_than_gh(self, small_python_profile):
        gh = _mechanism("gh", small_python_profile)
        gh.initialize()
        criu = _mechanism("criu", small_python_profile)
        criu.initialize()
        gh_post = gh.invoke(b"x", "r1", caller="a").post_seconds
        criu_post = criu.invoke(b"x", "r1", caller="a").post_seconds
        assert criu_post > 20 * gh_post

    def test_gh_uffd_tracker_slower_in_function_for_large_write_sets(self, small_python_profile):
        sd = _mechanism("gh", small_python_profile, tracker="soft-dirty")
        sd.initialize()
        uffd = _mechanism("gh", small_python_profile, tracker="uffd")
        uffd.initialize()
        sd.invoke(b"x", "w1", caller="a")
        uffd.invoke(b"x", "w1", caller="a")
        sd_fault = sd.invoke(b"x", "r", caller="b").result.fault_seconds
        uffd_fault = uffd.invoke(b"x", "r", caller="b").result.fault_seconds
        assert uffd_fault > sd_fault

    def test_leaky_function_slows_down_under_base_not_under_gh(self, leaky_profile):
        base = _mechanism("base", leaky_profile)
        base.initialize()
        gh = _mechanism("gh", leaky_profile)
        gh.initialize()
        for index in range(8):
            base_report = base.invoke(b"x", f"b{index}", caller=f"c{index}")
            gh_report = gh.invoke(b"x", f"g{index}", caller=f"c{index}")
        assert base_report.result.compute_seconds > gh_report.result.compute_seconds


class TestDefaultPayload:
    def test_payloadless_requests_share_one_payload_and_one_digest(self, monkeypatch):
        # A request without a payload gets the profile's input-sized
        # default; it is built once per mechanism, so the runtime's
        # identity-memoised response digest hashes it once, not per request.
        mechanism = _mechanism("gh", find_benchmark("json", "p").profile)
        mechanism.initialize()
        hashlib = repro.runtime.base.hashlib
        digested = []
        sha256 = hashlib.sha256

        def counting_sha256(data=b""):
            digested.append(len(data))
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        for index in range(5):
            mechanism.invoke(request_id=f"req-{index}")
        assert digested == [mechanism.profile.input_bytes]


class TestPageStateStaysFlat:
    """Run-length page state must not fragment as a container serves requests."""

    @pytest.mark.parametrize(
        "name, profile",
        [
            ("gh", lambda: find_benchmark("md2html", "p").profile),
            ("base", lambda: microbenchmark_profile(16, 2)),
        ],
    )
    def test_content_runs_do_not_grow_with_requests(self, name, profile):
        mechanism = _mechanism(name, profile())
        mechanism.initialize()
        space = mechanism.process.address_space
        for index in range(200):
            mechanism.invoke(f"payload-{index}".encode(), f"req-{index}")
            if index == 1:
                after_two = space.content_runs_per_vma()
        after_many = space.content_runs_per_vma()
        assert after_many.keys() == after_two.keys()
        assert all(after_many[start] <= after_two[start] for start in after_two)
