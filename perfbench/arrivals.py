"""The benchmark's own open-loop arrival generator.

Arrivals follow a diurnal cycle with correlated bursts, drawn from the
benchmark's ``--seed`` alone: the program under test receives only the
finished arrival list.  The shape is fixed and only the draws move with
the seed, so that two seeds stress the program alike:

* the rate swings sinusoidally, ``1 + amplitude * sin(2 pi t / period)``;
* each cycle holds ``bursts_per_cycle`` bursts, one centred in each equal
  stratum of the cycle.  While a burst is on, every action's rate is
  multiplied by ``burst_multiplier``, and the bursts cover exactly
  ``burst_fraction`` of the timeline.  Fixed phases keep the tail latency
  a property of the shape, not of one seed's luck in where its bursts
  fell on the diurnal curve;
* the arrival count is fixed by the run length, and the duration is that
  count over ``mean_rps``;
* action ``i`` is picked with weight ``1 / (i + 1) ** skew``, and the
  caller either cycles through the tenants by arrival index or is drawn
  with the given tenant shares.

Times come from rejection sampling against the rate shape and land in
compact arrays, so a long arrival list holds no GC-tracked object.
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Shape:
    """The load shape of one workload (checked-in constants)."""

    mean_rps: float
    cycles: int
    amplitude: float
    burst_multiplier: float
    burst_fraction: float
    bursts_per_cycle: int
    skew: float


@dataclass
class Arrivals:
    """A generated arrival list: due times, action and tenant indices."""

    due: array  # 'd': virtual seconds, ascending
    action: array  # 'H': index into the workload's action list
    tenant: array  # 'B': index into the workload's tenant list
    duration: float
    period: float

    def __len__(self) -> int:
        return len(self.due)


def burst_windows(shape: Shape, period: float) -> List[float]:
    """Flat ``[start0, end0, start1, end1, ...]`` burst edges, ascending."""
    edges: List[float] = []
    if shape.burst_fraction <= 0 or shape.burst_multiplier <= 1.0:
        return edges
    stratum = period / shape.bursts_per_cycle
    dwell = shape.burst_fraction * stratum
    for cycle in range(shape.cycles):
        for index in range(shape.bursts_per_cycle):
            start = cycle * period + index * stratum + (stratum - dwell) / 2.0
            edges.extend((start, start + dwell))
    return edges


def generate(
    shape: Shape,
    *,
    count: int,
    duration: float,
    actions: int,
    tenants: int,
    tenant_shares: Sequence[float],
    seed: int,
    stream: str,
) -> Arrivals:
    """Draw one workload's ``count`` arrivals over ``duration`` from ``seed``.

    The count is fixed and the seed draws when each arrival falls: a
    Poisson process with the shape's rate, conditioned on ``count``
    arrivals, which keeps the offered rate at exactly ``count / duration``.
    ``stream`` names the workload, so two workloads with one seed draw
    independent lists.  Empty ``tenant_shares`` cycles callers by arrival
    index; otherwise each caller is drawn with those shares.
    """
    rng = random.Random(f"perfbench:{stream}:{seed}")
    period = duration / shape.cycles
    edges = burst_windows(shape, period)
    two_pi_over_period = 2.0 * math.pi / period
    amplitude = shape.amplitude
    multiplier = shape.burst_multiplier
    ceiling = (1.0 + amplitude) * (multiplier if edges else 1.0)

    # Rejection sampling: a uniform candidate time survives with
    # probability rate(t) / ceiling, so the survivors follow the shape.
    times = []
    while len(times) < count:
        t = rng.random() * duration
        rate = 1.0 + amplitude * math.sin(two_pi_over_period * t)
        if bisect.bisect_right(edges, t) % 2 == 1:
            rate *= multiplier
        if rng.random() * ceiling < rate:
            times.append(t)
    times.sort()
    due = array("d", times)

    weights = [1.0 / (index + 1) ** shape.skew for index in range(actions)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    action = array("H")
    for _ in range(count):
        pick = min(bisect.bisect_right(cumulative, rng.random() * total), actions - 1)
        action.append(pick)

    tenant = array("B")
    if tenant_shares:
        share_cumulative = []
        running = 0.0
        for share in tenant_shares:
            running += share
            share_cumulative.append(running)
        for _ in range(count):
            pick = bisect.bisect_right(share_cumulative, rng.random() * running)
            tenant.append(min(pick, tenants - 1))
    else:
        for index in range(count):
            tenant.append(index % tenants)
    return Arrivals(due=due, action=action, tenant=tenant, duration=duration, period=period)
