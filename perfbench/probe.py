"""The reference probe: fixed work whose run time tracks host speed.

The replay's wall time is scaled by this probe, timed between slices of
the replay, so that a slow phase of the host (a noisy neighbour, a throttled
core) slows the probe and the replay alike and cancels out of the
normalised figure.  The work has two parts:

* an interpreter-bound mix of heap, dict, attribute and call work, the
  kind of bytecode the simulator runs; and
* a memory-bound pointer walk through one random cycle over a million
  small objects, resuming where the last walk stopped, which is as
  sensitive as the simulator's object graph to cache and memory
  contention.  A compute-only probe does not
  track the simulator on a contended host.

Every structure is built once, in :class:`ReferenceProbe`'s constructor.
A timed run allocates no GC-tracked object and runs with the collector
paused, so the probe neither triggers nor absorbs the program's garbage
collection.  Build the probe before the program is imported and freeze the
heap after it (``gc.freeze()``), so its objects never reach a collection.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Probe time of the reference host, in seconds.  Normalised times read
#: as "seconds on a host where the probe takes this long".
P_REF_SECONDS = 0.010

#: Nodes in the pointer walk (~40 MB), far more than a private L2 holds.
WALK_NODES = 1_000_000
#: Steps of the walk per run.
WALK_STEPS = 10_000
#: Rounds of the interpreter-bound mix per run.
MIX_ROUNDS = 10_000
#: Fixed seed of the walk's permutation; the probe is the same everywhere.
PROBE_SEED = 0x9E3779B9


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 1


def _mix_step(a: int, b: int) -> int:
    return (a ^ b) & 0xFF


class ReferenceProbe:
    """Fixed-work pure-Python probe; :meth:`measure` returns its run time."""

    def __init__(self) -> None:
        rng = random.Random(PROBE_SEED)
        order = list(range(WALK_NODES))
        rng.shuffle(order)
        successor = [0] * WALK_NODES
        for position in range(WALK_NODES):
            successor[order[position]] = order[(position + 1) % WALK_NODES]
        self._successor = successor
        self._cursor = 0
        self._heap = [rng.randrange(100_003) for _ in range(1024)]
        heapq.heapify(self._heap)
        self._table = {key: key for key in range(1024)}

        self._cell = _Cell()

    def _mix(self) -> int:
        heap = self._heap
        table = self._table
        cell = self._cell
        pushpop = heapq.heappushpop
        acc = 0
        for step in range(MIX_ROUNDS):
            value = pushpop(heap, (step * 7919) % 100_003)
            key = value & 1023
            table[key] = (table[key] + step) & 0xFFFF
            cell.a = cell.b + key
            cell.b = cell.a & 0xFFFF
            acc += _mix_step(key, step)
        return acc

    def _walk(self) -> None:
        # The walk resumes where the last one stopped, so each run reaches
        # nodes the caches have not seen lately: fixed work, fresh memory.
        successor = self._successor
        node = self._cursor
        for _ in range(WALK_STEPS):
            node = successor[node]
        self._cursor = node

    def measure(self) -> float:
        """Warm the probe once, then time one run (seconds)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._mix()
            self._walk()
            started = time.perf_counter()
            self._mix()
            self._walk()
            ended = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        return ended - started
