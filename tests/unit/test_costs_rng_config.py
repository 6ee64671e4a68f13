"""Tests for the cost model, RNG streams and global configuration."""

from __future__ import annotations

import pytest

from repro.config import (
    LATENCY_CONFIG,
    THROUGHPUT_CONFIG,
    SimulationConfig,
)
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.rng import FALLBACK_SEEDS, RngStreams, fallback_stream


class TestCostModel:
    def test_default_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.minor_fault_seconds = 1.0  # type: ignore[misc]

    def test_cow_fault_costs_more_than_soft_dirty_fault(self):
        cm = CostModel()
        assert cm.cow_fault_seconds > cm.soft_dirty_fault_seconds

    def test_uffd_fault_costs_more_than_soft_dirty_fault(self):
        cm = CostModel()
        assert cm.uffd_fault_seconds > cm.soft_dirty_fault_seconds

    def test_coalesced_copy_is_cheaper(self):
        cm = CostModel()
        assert cm.page_copy_coalesced_seconds < cm.page_copy_seconds

    def test_criu_restore_orders_of_magnitude_slower_than_page_ops(self):
        cm = CostModel()
        assert cm.criu_restore_base_seconds > 1000 * cm.page_copy_seconds

    def test_scaled_multiplies_time_constants(self):
        cm = CostModel()
        faster = cm.scaled(0.5)
        assert faster.page_copy_seconds == pytest.approx(cm.page_copy_seconds * 0.5)
        assert faster.ptrace_interrupt_seconds == pytest.approx(
            cm.ptrace_interrupt_seconds * 0.5
        )
        # Non-time fields are untouched.
        assert faster.coalesce_threshold == cm.coalesce_threshold

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            CostModel().scaled(0.0)


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(42).stream("jitter")
        b = RngStreams(42).stream("jitter")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        streams = RngStreams(42)
        first = streams.stream("a").random()
        # Drawing from stream "b" must not change what "a" yields next.
        streams_2 = RngStreams(42)
        streams_2.stream("b").random()
        assert streams_2.stream("a").random() == pytest.approx(
            RngStreams(42).stream("a").random()
        )
        assert first == pytest.approx(RngStreams(42).stream("a").random())

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_reset_restarts_streams(self):
        streams = RngStreams(7)
        first = streams.stream("s").random()
        streams.reset()
        assert streams.stream("s").random() == pytest.approx(first)

    def test_expovariate_draws_poisson_gaps(self):
        streams = RngStreams(9)
        gaps = [streams.expovariate("arrivals", 100.0) for _ in range(500)]
        assert all(gap > 0.0 for gap in gaps)
        # The mean inter-arrival gap of a 100/s Poisson process is 10 ms.
        assert sum(gaps) / len(gaps) == pytest.approx(0.01, rel=0.25)
        # Deterministic per (seed, stream name).
        again = RngStreams(9)
        assert again.expovariate("arrivals", 100.0) == pytest.approx(
            RngStreams(9).expovariate("arrivals", 100.0)
        )

    def test_expovariate_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RngStreams(9).expovariate("arrivals", 0.0)


class TestFallbackStreams:
    def test_seeds_are_the_historical_constants(self):
        # Load-bearing: these are the exact inline seeds the components
        # carried before the table existed.  Changing one silently changes
        # every simulation relying on the component's default jitter.
        assert dict(FALLBACK_SEEDS) == {
            "faas.container": 11,
            "faas.controller": 31,
            "faas.invoker": 23,
            "core.policy": 7,
            "runtime": 0,
            "cli.demo-leak": 1,
        }

    def test_fallback_stream_matches_inline_constant_bit_for_bit(self):
        import random

        for component, seed in FALLBACK_SEEDS.items():
            expected = random.Random(seed)
            got = fallback_stream(component)
            assert [got.random() for _ in range(8)] == [
                expected.random() for _ in range(8)
            ], component

    def test_fallback_stream_returns_fresh_generators(self):
        a = fallback_stream("faas.container")
        b = fallback_stream("faas.container")
        assert a is not b
        assert a.random() == b.random()

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown fallback stream"):
            fallback_stream("no.such.component")


class TestSimulationConfig:
    def test_defaults_are_valid(self):
        config = SimulationConfig()
        assert config.cores == 1
        assert config.containers_per_action == 1

    def test_paper_configs(self):
        assert LATENCY_CONFIG.cores == 1
        assert THROUGHPUT_CONFIG.cores == 4
        assert THROUGHPUT_CONFIG.containers_per_action == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"containers_per_action": 0},
            {"invokers": 0},
            {"keep_alive_seconds": 0},
            {"platform_overhead_seconds": -1},
            {"platform_jitter_seconds": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)
