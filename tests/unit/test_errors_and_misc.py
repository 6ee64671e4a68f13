"""Tests for the error hierarchy and smaller supporting components."""

from __future__ import annotations

import random

import pytest

import repro
from repro import errors
from repro.faas.controller import Controller
from repro.faas.invoker import Invoker
from repro.faas.action import ActionSpec
from repro.faas.proxy import ActionLoopProxy
from repro.faas.request import Invocation
from repro.core.policy import GroundhogMechanism
from repro.sim.costs import CostModel
from repro.sim.events import EventLoop


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError), name

    def test_segfault_carries_address_and_access(self):
        err = errors.SegmentationFault(0x1234, access="write")
        assert err.address == 0x1234
        assert "write" in str(err)

    def test_no_such_process_carries_pid(self):
        assert errors.NoSuchProcessError(42).pid == 42

    def test_action_not_found_carries_action(self):
        assert errors.ActionNotFoundError("foo").action == "foo"

    def test_config_error_is_also_a_value_error(self):
        from repro.config import SimulationConfig

        with pytest.raises(errors.ConfigError, match="cores must be >= 1") as info:
            SimulationConfig(cores=0)
        assert isinstance(info.value, ValueError)


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_mechanism_registry_exposed(self):
        assert "gh" in repro.MECHANISMS
        mech = repro.create_mechanism("gh", repro.microbenchmark_profile(200, 20))
        assert isinstance(mech, GroundhogMechanism)


class TestProxy:
    def test_overhead_scales_with_payload(self):
        proxy = ActionLoopProxy(CostModel())
        small = proxy.request_overhead_seconds(100, 100)
        large = proxy.request_overhead_seconds(200_000, 100)
        assert large > small
        assert proxy.requests_proxied == 2

    def test_overhead_has_fixed_floor(self):
        proxy = ActionLoopProxy(CostModel())
        assert proxy.request_overhead_seconds(0, 0) >= CostModel().invoker_request_overhead_seconds


class TestController:
    def _setup(self, small_python_profile, overhead=0.02, jitter=0.0):
        loop = EventLoop()
        invoker = Invoker(loop, cores=1)
        invoker.deploy(ActionSpec.for_profile(small_python_profile, "base"))
        controller = Controller(
            loop, invoker,
            platform_overhead_seconds=overhead,
            platform_jitter_seconds=jitter,
            rng=random.Random(0),
        )
        return loop, controller

    def test_platform_overhead_added_to_e2e(self, small_python_profile):
        loop, controller = self._setup(small_python_profile)
        finished = []
        invocation = Invocation(action=small_python_profile.name, payload=b"x",
                                submitted_at=loop.now)
        controller.submit(invocation, finished.append)
        loop.run()
        assert len(finished) == 1
        e2e = finished[0].completed_at - finished[0].submitted_at
        assert e2e >= finished[0].invoker_seconds + 0.02 - 1e-9

    def test_zero_jitter_is_deterministic(self, small_python_profile):
        loop, controller = self._setup(small_python_profile, overhead=0.03, jitter=0.0)
        assert controller._overhead_sample() == 0.03

    def test_jitter_never_negative(self, small_python_profile):
        _, controller = self._setup(small_python_profile, overhead=0.001, jitter=0.05)
        assert all(controller._overhead_sample() >= 0 for _ in range(100))
