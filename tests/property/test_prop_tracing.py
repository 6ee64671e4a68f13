"""Property tests for flight-recorder sampling (``repro.faas.obs``).

The recorder's sampling decision is the determinism linchpin of the
observability layer: ``run_replicated`` must reproduce *identical*
sampled traces whether the per-seed runs execute serially in-process or
fan out across spawn-started worker processes.  That only holds if the
keep/drop decision is a pure function of ``(seed, run-local ordinal,
period)`` — never of process identity, wall clock, global counters, or
interleaving.  Pinned here:

* **Purity/stability**: :func:`repro.faas.obs.trace._sampled` returns
  the same answer for the same ``(seed, ordinal, period)`` every time,
  across calls and across recorder instances.
* **Period-1 totality**: ``sample_period=1`` keeps every invocation —
  "sampled" mode degrades gracefully to "full".
* **Recorder agreement**: two fresh ``TraceRecorder("sampled", ...)``
  instances fed the same ordinal stream keep the same subset, and the
  subset is independent of which invocations other recorders saw.
* **Seed sensitivity**: different seeds pick different subsets (for
  large enough streams), so replicated seeds explore different samples.
* **Serial == parallel**: ``run_replicated`` over the traced worker
  yields bit-identical trace digests and kept-counts with and without
  process fan-out (the end-to-end form of the purity property).
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.analysis.perf import replay, run_replicated
from repro.faas.obs import TraceRecorder
from repro.faas.obs.trace import _sampled

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ordinals = st.integers(min_value=0, max_value=2**20)
periods = st.integers(min_value=1, max_value=64)


def _keep_list(recorder, count):
    """Feed ``count`` synthetic invocations; return the kept ordinals."""
    kept = []
    for ordinal in range(count):
        trace = recorder.begin_invocation(
            SimpleNamespace(
                invocation_id=f"inv-{ordinal:05d}",
                action="prop",
                caller="t",
                submitted_at=float(ordinal),
            )
        )
        if trace is not None:
            kept.append(ordinal)
    return kept


@given(seed=seeds, ordinal=ordinals, period=periods)
@settings(max_examples=300, deadline=None)
def test_sampling_decision_is_pure_and_stable(seed, ordinal, period):
    first = _sampled(seed, ordinal, period)
    assert all(
        _sampled(seed, ordinal, period) == first for _ in range(3)
    ), "decision must not depend on call history"
    assert isinstance(first, bool)


@given(seed=seeds, ordinal=ordinals)
@settings(max_examples=200, deadline=None)
def test_period_one_keeps_everything(seed, ordinal):
    assert _sampled(seed, ordinal, 1) is True


@given(seed=seeds, period=periods, count=st.integers(min_value=1, max_value=200))
@settings(max_examples=100, deadline=None)
def test_fresh_recorders_keep_the_same_subset(seed, period, count):
    make = lambda: TraceRecorder(
        "sampled", seed=seed, sample_period=period, capacity=4096
    )
    first = _keep_list(make(), count)
    second = _keep_list(make(), count)
    assert first == second
    # And the subset matches the pure predicate exactly: the recorder
    # adds no state of its own to the keep/drop decision.
    assert first == [o for o in range(count) if _sampled(seed, o, period)]


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_seed_changes_the_sample(seed):
    period, count = 8, 512
    mine = [o for o in range(count) if _sampled(seed, o, period)]
    other = [o for o in range(count) if _sampled(seed + 1, o, period)]
    # With 512 ordinals at period 8 (~64 keeps), two seeds agreeing on
    # the whole subset would need ~2^-250 luck; any overlap short of
    # total is fine, identity is the bug.
    assert mine != other


def traced_replica_worker(seed: int):
    """A :func:`run_replicated` worker that returns a sampled-trace digest.

    Replays a small metrics trace with the recorder sampling and returns
    only plain picklable fields — most importantly the recorder's
    :meth:`~repro.faas.obs.TraceRecorder.trace_digest`, which must be
    identical whether the replica ran serially in the parent or inside a
    spawn-started worker process: the sampling key is the run-local
    arrival ordinal, and the ids the digest covers are the cluster's own.
    """
    summary = replay("tracing_overhead", "sampled", invocations=3_000, seed=seed)
    return {
        key: summary[key]
        for key in ("seed", "arrivals", "traces_recorded", "trace_digest")
    }


class TestReplicatedTraceDeterminism:
    """The end-to-end pin: sampled traces survive process fan-out."""

    SEEDS = (11, 12)

    def test_serial_and_parallel_digests_match(self):
        serial = run_replicated(traced_replica_worker, seeds=self.SEEDS)
        fanned = run_replicated(
            traced_replica_worker, seeds=self.SEEDS, processes=2
        )
        assert len(serial) == len(fanned) == len(self.SEEDS)
        for mine, theirs in zip(serial, fanned):
            assert mine["seed"] == theirs["seed"]
            assert mine["arrivals"] == theirs["arrivals"]
            assert mine["traces_recorded"] == theirs["traces_recorded"]
            assert mine["trace_digest"] == theirs["trace_digest"]

    def test_seeds_produce_distinct_sampled_traces(self):
        a, b = run_replicated(traced_replica_worker, seeds=self.SEEDS)
        assert a["trace_digest"] != b["trace_digest"]
