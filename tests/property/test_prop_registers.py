"""Property tests for register files against the dict round trip they replaced.

``RegisterSet.advanced`` used to copy the registers into a dict, update
four entries and turn the dict back into a tuple.  It now builds the next
tuple directly.  :func:`reference_advanced` keeps the dict round trip as the
reference, and the two must return the same pairs in the same order for
every register file the package can build: the canonical order of
``RegisterSet.initial``, any order a caller constructs, and whatever
``with_updates`` and ``advanced`` chains make of them.

A thread advances its register file by count: ``run_instructions`` adds
to the instructions and stack delta run since the last read, and a read
applies them at once.  The eager chain of ``advanced`` calls, one per
``run_instructions``, is the oracle for any interleaving of runs, reads,
writes and ptrace stops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProcessStateError
from repro.proc.registers import GENERAL_REGISTERS, RegisterSet
from repro.proc.thread import SimThread

WORD = 0xFFFFFFFFFFFFFFFF


def reference_advanced(registers: RegisterSet, instructions: int, stack_delta: int = 0) -> RegisterSet:
    """``RegisterSet.advanced`` as a dict round trip."""
    mapping = dict(registers.values)
    mapping["rip"] = mapping["rip"] + instructions
    mapping["rsp"] = mapping["rsp"] - stack_delta
    mapping["rax"] = (mapping["rax"] + instructions * 7919) & WORD
    mapping["rcx"] = (mapping["rcx"] + instructions * 104729) & WORD
    return RegisterSet(values=tuple(mapping.items()))


values = st.integers(min_value=0, max_value=WORD)


@st.composite
def register_sets(draw):
    """A register file in canonical or any other order, maybe with updates applied."""
    if draw(st.booleans()):
        names = list(GENERAL_REGISTERS)
    else:
        names = draw(st.permutations(GENERAL_REGISTERS))
    registers = RegisterSet(values=tuple((name, draw(values)) for name in names))
    updates = draw(st.dictionaries(st.sampled_from(GENERAL_REGISTERS), values, max_size=6))
    if updates:
        registers = registers.with_updates(**updates)
    return registers


steps = st.tuples(
    st.integers(min_value=0, max_value=1 << 40),  # instructions
    st.integers(min_value=-(1 << 20), max_value=1 << 20),  # stack delta
)


class TestAdvancedMatchesDictRoundTrip:
    @given(register_sets(), st.lists(steps, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_same_pairs_in_the_same_order(self, registers, chain):
        shipped = reference = registers
        for instructions, stack_delta in chain:
            shipped = shipped.advanced(instructions, stack_delta)
            reference = reference_advanced(reference, instructions, stack_delta)
            assert shipped.values == reference.values

    @given(values, st.integers(min_value=0, max_value=1 << 40))
    @settings(max_examples=50, deadline=None)
    def test_initial_register_files(self, rip, instructions):
        registers = RegisterSet.initial(rip=rip)
        assert registers.advanced(instructions).values == (
            reference_advanced(registers, instructions).values
        )

    @pytest.mark.parametrize("missing", ["rip", "rsp", "rax", "rcx"])
    def test_a_missing_register_is_a_key_error_in_both(self, missing):
        registers = RegisterSet(
            values=tuple((name, 1) for name in GENERAL_REGISTERS if name != missing)
        )
        with pytest.raises(KeyError):
            reference_advanced(registers, 8)
        with pytest.raises(KeyError):
            registers.advanced(8)


thread_operations = st.lists(
    st.one_of(
        st.tuples(st.just("run"), steps),
        st.tuples(st.just("read"), st.none()),
        st.tuples(st.just("set"), register_sets()),
        st.tuples(st.just("stop"), st.none()),
        st.tuples(st.just("resume"), st.none()),
    ),
    max_size=40,
)


class TestThreadAdvancesByCount:
    @given(register_sets(), thread_operations)
    @settings(max_examples=200, deadline=None)
    def test_reads_match_the_eager_chain(self, initial, operations):
        thread = SimThread(tid=1, registers=initial)
        expected = initial
        running = True
        for operation, argument in operations:
            if operation == "run":
                instructions, stack_delta = argument
                if running:
                    thread.run_instructions(instructions, stack_delta)
                    expected = expected.advanced(instructions, stack_delta)
                else:
                    with pytest.raises(ProcessStateError):
                        thread.run_instructions(instructions, stack_delta)
            elif operation == "read":
                assert thread.get_registers().values == expected.values
            elif operation == "set":
                thread.set_registers(argument)
                expected = argument
            elif operation == "stop":
                thread.stop()
                running = False
            else:
                thread.resume()
                running = True
        assert thread.registers.values == expected.values
        assert thread.get_registers().values == expected.values
