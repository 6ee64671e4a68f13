"""Tests for the flight recorder: spans, sampling, exporter, decomposer.

The exporter-correctness tests run one real traced cluster (full tracing,
open-loop overload so queueing, cold starts and steals all occur) and then
check structural invariants of the Chrome trace-event output: valid JSON,
per-track timestamp monotonicity, exact ``B``/``E`` pairing, and the
six-phase decomposition telescoping to the end-to-end latency.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SimulationConfig
from repro.faas.action import ActionSpec
from repro.faas.cluster import FaaSCluster
from repro.faas.loadgen import OpenLoopClient, TenantMix
from repro.faas.obs import (
    InvocationTrace,
    TraceRecorder,
    chrome_trace_events,
    export_chrome_trace,
    latency_decompose,
    render_decomposition,
    write_chrome_trace,
)
from repro.faas.obs.trace import PHASES, _sampled
from repro.faas.request import Invocation
from repro.runtime.profiles import FunctionProfile, Language

_PROFILE = FunctionProfile(
    name="obs-python",
    language=Language.PYTHON,
    suite="unit",
    exec_seconds=0.010,
    total_kpages=1.2,
    dirtied_kpages=0.15,
    heap_growth_pages=4,
    threads=1,
    init_fraction=0.7,
)

_RECORDED_CACHE: dict = {}


def _recorded_run(tracing: str = "full", seed: int = 11):
    """One traced two-invoker overload run, cached per (tracing, seed)."""
    key = (tracing, seed)
    if key not in _RECORDED_CACHE:
        platform = FaaSCluster(SimulationConfig(
            cores=1,
            containers_per_action=1,
            invokers=2,
            scheduler_policy="warm-aware",
            work_stealing=True,
            max_containers_per_action=2,
            seed=seed,
            tracing=tracing,
        ))
        names = [f"obs-{i}" for i in range(4)]
        for name in names:
            platform.deploy(ActionSpec.for_profile(_PROFILE, "gh", name=name))
        client = OpenLoopClient(
            platform, names, rate_rps=150.0, duration_seconds=2.0,
            caller_for=TenantMix({"tenant-a": 1.0, "tenant-b": 1.0}),
        )
        result = client.run()
        _RECORDED_CACHE[key] = (platform, result)
    return _RECORDED_CACHE[key]


class TestInvocationTracePhases:
    def _base_trace(self) -> InvocationTrace:
        trace = InvocationTrace("inv-1", "f", "tenant", 0.0)
        trace.route("warm-aware", 1)
        trace.arrive(0.01, "invoker-1")
        return trace

    def test_phases_none_until_completed(self):
        trace = self._base_trace()
        assert trace.phases() is None
        assert trace.e2e_seconds is None
        trace.dispatch(0.5, "cold", "c-1", 0.3)
        assert trace.phases() is None  # still not completed

    def test_cold_dispatch_phases_telescope_exactly(self):
        trace = self._base_trace()
        trace.dispatch(0.5, "cold", "c-1", 0.3)
        trace.execute_seconds = 0.1
        trace.finish("completed", 0.7)
        phases = trace.phases()
        assert phases["inbound"] == pytest.approx(0.01)
        # Blocked on the boot until ready_at 0.3, then a residual queue
        # wait for the core until dispatch at 0.5.
        assert phases["boot"] == pytest.approx(0.29)
        assert phases["restore"] == 0.0
        assert phases["queue"] == pytest.approx(0.20)
        assert phases["execute"] == pytest.approx(0.1)
        assert phases["outbound"] == pytest.approx(0.1)
        assert sum(phases.values()) == pytest.approx(trace.e2e_seconds)
        assert set(phases) == set(PHASES)

    def test_restore_dispatch_attributes_blocked_wait_to_restore(self):
        trace = self._base_trace()
        trace.dispatch(0.05, "restore", "c-2", 0.04)
        trace.execute_seconds = 0.01
        trace.finish("completed", 0.07)
        phases = trace.phases()
        assert phases["restore"] == pytest.approx(0.03)
        assert phases["boot"] == 0.0
        assert sum(phases.values()) == pytest.approx(trace.e2e_seconds)

    def test_warm_dispatch_has_no_blocked_phase(self):
        trace = self._base_trace()
        trace.dispatch(0.02, "warm", "c-3", 0.0)
        trace.execute_seconds = 0.01
        trace.finish("completed", 0.04)
        phases = trace.phases()
        assert phases["boot"] == 0.0 and phases["restore"] == 0.0
        assert phases["queue"] == pytest.approx(0.01)

    def test_blocked_wait_never_exceeds_total_wait(self):
        trace = self._base_trace()
        # Container became ready long after dispatch was possible — the
        # blocked share is clamped to the actual wait.
        trace.dispatch(0.2, "cold", "c-4", 5.0)
        trace.execute_seconds = 0.01
        trace.finish("completed", 0.3)
        phases = trace.phases()
        assert phases["boot"] == pytest.approx(0.19)
        assert phases["queue"] == 0.0

    def test_arrive_is_first_arrival_wins(self):
        trace = self._base_trace()
        trace.arrive(0.5, "invoker-9")
        assert trace.invoker_id == "invoker-1"
        assert trace.invoker_arrival_at == 0.01


class TestTraceRecorder:
    def _invocation(self, submitted_at: float = 0.0) -> Invocation:
        invocation = Invocation(action="f", caller="tenant")
        invocation.submitted_at = submitted_at
        return invocation

    def test_mode_and_knob_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder("bogus", seed=1)
        with pytest.raises(ValueError):
            TraceRecorder("sampled", seed=1, sample_period=0)
        with pytest.raises(ValueError):
            TraceRecorder("full", seed=1, capacity=0)

    def test_full_mode_records_every_invocation(self):
        recorder = TraceRecorder("full", seed=1)
        traces = [recorder.begin_invocation(self._invocation()) for _ in range(20)]
        assert all(trace is not None for trace in traces)
        assert recorder.seen == recorder.started == 20

    def test_sampled_mode_is_a_deterministic_subset(self):
        kept_a = [
            recorder.begin_invocation(self._invocation()) is not None
            for recorder in [TraceRecorder("sampled", seed=7, sample_period=4)]
            for _ in range(200)
        ]
        kept_b = [
            recorder.begin_invocation(self._invocation()) is not None
            for recorder in [TraceRecorder("sampled", seed=7, sample_period=4)]
            for _ in range(200)
        ]
        assert kept_a == kept_b
        # The crc-keyed filter keeps roughly 1/period of the arrivals.
        assert 200 // 4 * 0.4 <= sum(kept_a) <= 200 // 4 * 2.5
        # A different seed samples a different subset.
        kept_c = [
            recorder.begin_invocation(self._invocation()) is not None
            for recorder in [TraceRecorder("sampled", seed=8, sample_period=4)]
            for _ in range(200)
        ]
        assert kept_a != kept_c

    def test_sampling_key_is_process_stable(self):
        # The published invariant: crc32 of "seed:ordinal", independent of
        # PYTHONHASHSEED and of the invocation ids.
        import zlib

        for seed, ordinal, period in [(1, 0, 16), (20230501, 123, 16), (9, 7, 4)]:
            expected = zlib.crc32(f"{seed}:{ordinal}".encode("ascii")) % period == 0
            assert _sampled(seed, ordinal, period) is expected

    def test_ring_buffer_bounds_retained_traces(self):
        recorder = TraceRecorder("full", seed=1, capacity=4)
        for index in range(10):
            invocation = self._invocation(float(index))
            invocation.trace = recorder.begin_invocation(invocation)
            invocation.completed_at = float(index) + 0.5
            recorder.finish_invocation(invocation)
        counts = recorder.counts()
        assert counts["finished"] == 10
        assert counts["retained"] == 4
        assert counts["dropped"] == 6
        # The ring keeps the most recent traces.
        assert [trace.submitted_at for trace in recorder.invocations] == [
            6.0, 7.0, 8.0, 9.0,
        ]

    def test_audit_and_container_span_buffers(self):
        recorder = TraceRecorder("full", seed=1)
        recorder.audit(1.0, "keep-alive", "evict c-1", actor="invoker-0")
        recorder.record_container_span(
            kind="boot", invoker="invoker-0", container_id="c-2",
            action="f", start=1.0, end=1.5,
        )
        assert recorder.audit_log[0].category == "keep-alive"
        span = recorder.container_spans[0]
        assert span.name == "boot" and span.duration == pytest.approx(0.5)


class TestChromeExporter:
    def test_export_is_valid_chrome_trace_json(self, tmp_path):
        platform, _ = _recorded_run()
        recorder = platform.trace()
        assert recorder is not None and recorder.invocations
        path = tmp_path / "trace.json"
        count = write_chrome_trace(recorder, str(path))
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["recorder_mode"] == "full"
        for event in document["traceEvents"]:
            assert event["ph"] in ("B", "E", "X", "i", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "name" in event
            if event["ph"] != "M":
                assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_timestamps_are_monotone_per_track(self):
        platform, _ = _recorded_run()
        events = chrome_trace_events(platform.trace())
        last_ts: dict = {}
        for event in events:
            if event["ph"] == "M":
                continue
            tid = event["tid"]
            assert event["ts"] >= last_ts.get(tid, 0.0)
            last_ts[tid] = event["ts"]

    def test_begin_end_events_pair_exactly(self):
        platform, _ = _recorded_run()
        stacks: dict = {}
        for event in chrome_trace_events(platform.trace()):
            if event["ph"] == "B":
                stacks.setdefault(event["tid"], []).append(event["name"])
            elif event["ph"] == "E":
                stack = stacks.get(event["tid"])
                assert stack, f"E without B on tid {event['tid']}"
                assert stack.pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_phase_sums_equal_end_to_end_latency(self):
        platform, _ = _recorded_run()
        recorder = platform.trace()
        checked = 0
        for trace in recorder.invocations:
            phases = trace.phases()
            if phases is None:
                continue
            assert sum(phases.values()) == pytest.approx(
                trace.e2e_seconds, rel=1e-9, abs=1e-12
            )
            assert all(duration >= 0.0 for duration in phases.values())
            checked += 1
        assert checked > 0

    def test_container_boot_spans_are_recorded(self):
        platform, _ = _recorded_run()
        recorder = platform.trace()
        boots = [span for span in recorder.container_spans if span.name == "boot"]
        assert boots
        assert all(span.end >= span.start for span in boots)

    def test_keep_alive_audits_land_on_the_timeline(self):
        platform, _ = _recorded_run()
        categories = {audit.category for audit in platform.trace().audit_log}
        # The overload run evicts idle containers after the keep-alive
        # and (with stealing on) adopts queued work across invokers.
        assert "keep-alive" in categories or "steal" in categories


class TestLatencyDecomposer:
    def test_decomposition_groups_and_shares(self):
        platform, _ = _recorded_run()
        report = latency_decompose(platform.trace())
        groups = report["groups"]
        assert "*/*" in groups
        overall = groups["*/*"]
        assert overall["count"] > 0
        shares = overall["phase_share_of_mean"]
        assert set(shares) == set(PHASES)
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-6)
        # Per-tenant groups exist for both tenants of the mix.
        assert any(key.startswith("tenant-a/") for key in groups)
        assert any(key.startswith("tenant-b/") for key in groups)

    def test_render_decomposition_is_a_table(self):
        platform, _ = _recorded_run()
        rendered = render_decomposition(latency_decompose(platform.trace()))
        assert "*/*" in rendered
        for phase in PHASES:
            assert phase in rendered


class TestTracingChangesNothingSimulated:
    def test_off_and_full_runs_are_bit_identical(self):
        platform_off, result_off = _recorded_run(tracing="off", seed=23)
        platform_on, result_on = _recorded_run(tracing="full", seed=23)
        assert platform_off.trace() is None
        assert platform_on.trace() is not None
        assert result_off.achieved_rps == result_on.achieved_rps
        assert result_off.completed == result_on.completed
        assert result_off.rejected == result_on.rejected
        assert platform_off.steals == platform_on.steals
        assert (
            sum(inv.cold_starts for inv in platform_off.invokers)
            == sum(inv.cold_starts for inv in platform_on.invokers)
        )
        stats_off = result_off.e2e
        stats_on = result_on.e2e
        assert stats_off is not None and stats_on is not None
        assert stats_off.p99 == stats_on.p99
