"""Property tests (hypothesis): a run of faults is charged as its adds.

The address space charges a run of identical faults through
:func:`repro.mem.address_space._repeat_add`.  Float addition is not
associative, so the meter must read bit for bit what one rounded add per
fault gives.  From :data:`CLOSED_FORM_MIN_ADDS` adds of one step on, the
result is computed in closed form (whole ulps per binade, single adds at
ties and binade crossings); the plain per-add loop below is its oracle.
The totals cover zero, random values and values just below a power of
two; the steps cover the cost model's fault costs, random steps and
tie-prone steps ``1.5 * 2**-k``, whose remainder is exactly half an ulp
in one binade.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.mem.address_space import CLOSED_FORM_MIN_ADDS, _repeat_add
from repro.sim.costs import DEFAULT_COST_MODEL

#: The per-fault costs the address space charges in runs.
FAULT_STEPS = (
    DEFAULT_COST_MODEL.minor_fault_seconds,
    DEFAULT_COST_MODEL.soft_dirty_fault_seconds,
    DEFAULT_COST_MODEL.cow_fault_seconds,
    DEFAULT_COST_MODEL.fork_first_touch_seconds,
    DEFAULT_COST_MODEL.uffd_fault_seconds,
)


def per_add(total: float, steps, times: int) -> float:
    """One rounded add per fault, in order: the oracle."""
    for _ in range(times):
        for step in steps:
            total += step
    return total


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


totals = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    # A few ulps below a power of two: the first adds cross a binade.
    st.builds(
        lambda exponent, ulps: 2.0 ** exponent - ulps * 2.0 ** (exponent - 53),
        st.integers(min_value=-40, max_value=20),
        st.integers(min_value=1, max_value=5000),
    ),
)

steps = st.one_of(
    st.sampled_from(FAULT_STEPS),
    st.floats(min_value=1e-12, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.builds(lambda k: 1.5 * 2.0 ** -k, st.integers(min_value=1, max_value=70)),
)

counts = st.integers(min_value=0, max_value=5000)


class TestRepeatAddMatchesPerAddLoop:
    @given(totals, steps, counts)
    # A tie: 1.5 ulps from an odd last bit rounds down to even, then every
    # later add rounds up, so neither direction fits every add.
    @example(1.0 + 2.0 ** -52, 1.5 * 2.0 ** -52, 100)
    # A binade crossing: the total reaches 1.0 after about 175 adds, where
    # the ulp doubles.
    @example(1.0 - 2.0 ** -12, DEFAULT_COST_MODEL.soft_dirty_fault_seconds, 600)
    # A step below half an ulp: no add moves the total.
    @example(1e6, 1e-12, 5000)
    # Outside the closed form's domain (a negative total or step): the loop.
    @example(-1.0, 1e-7, 100)
    @example(0.5, -1e-7, 100)
    @settings(max_examples=400, deadline=None)
    def test_one_step_equals_its_adds(self, total, step, times):
        assert same_bits(_repeat_add(total, (step,), times), per_add(total, (step,), times))

    @given(totals, st.lists(steps, max_size=3), st.integers(min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_several_steps_equal_their_adds(self, total, step_list, times):
        assert same_bits(
            _repeat_add(total, step_list, times), per_add(total, step_list, times)
        )

    def test_the_pinned_cases_take_the_closed_form_and_leave_the_binade(self):
        # The pinned examples above only test something if they run in
        # closed form: at least the crossover's adds, and (the crossing)
        # a result in another binade than the start.
        assert CLOSED_FORM_MIN_ADDS <= 100
        start = 1.0 - 2.0 ** -12
        end = _repeat_add(start, (DEFAULT_COST_MODEL.soft_dirty_fault_seconds,), 600)
        assert math.frexp(start)[1] != math.frexp(end)[1]
