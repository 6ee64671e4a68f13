"""Phase-level latency decomposer over recorded invocation traces.

Answers *why* p99 moved: for every (tenant, dispatch class) group the
six lifecycle phases (schema: :mod:`repro.faas.obs.trace`) are averaged
over the whole group and over its latency tail, so "rising-edge p99 is
mostly boot-backlog wait" becomes a number rather than a guess.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.faas.obs.trace import PHASES, InvocationTrace, TraceRecorder

__all__ = ["latency_decompose", "render_decomposition"]

#: The slowest share of each group the tail attribution averages: the top
#: 1%, the p99 neighbourhood.
TAIL_FRACTION = 0.01


def _nearest_rank(sorted_values: List[float], quantile: float) -> float:
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _group_report(rows: List[Tuple[float, Dict[str, float]]]) -> Dict[str, object]:
    rows = sorted(rows, key=lambda row: row[0])
    e2e = [row[0] for row in rows]
    count = len(rows)
    mean = sum(e2e) / count
    tail_count = max(1, math.ceil(TAIL_FRACTION * count))
    tail_rows = rows[-tail_count:]
    tail_mean = sum(row[0] for row in tail_rows) / tail_count

    def phase_ms(selection: List[Tuple[float, Dict[str, float]]]) -> Dict[str, float]:
        return {
            phase: 1000.0 * sum(row[1][phase] for row in selection) / len(selection)
            for phase in PHASES
        }

    def shares(phase_means: Dict[str, float], total_ms: float) -> Dict[str, float]:
        if total_ms <= 0.0:
            return {phase: 0.0 for phase in PHASES}
        return {phase: phase_means[phase] / total_ms for phase in PHASES}

    mean_phases = phase_ms(rows)
    tail_phases = phase_ms(tail_rows)
    return {
        "count": count,
        "mean_ms": mean * 1000.0,
        "p50_ms": _nearest_rank(e2e, 0.50) * 1000.0,
        "p99_ms": _nearest_rank(e2e, 0.99) * 1000.0,
        "phase_mean_ms": mean_phases,
        "phase_share_of_mean": shares(mean_phases, mean * 1000.0),
        "tail_count": tail_count,
        "tail_mean_ms": tail_mean * 1000.0,
        "tail_phase_mean_ms": tail_phases,
        "tail_phase_share": shares(tail_phases, tail_mean * 1000.0),
    }


def latency_decompose(recorder: TraceRecorder) -> Dict[str, object]:
    """Attribute each phase's share of mean and tail latency.

    Groups completed traces by ``(tenant, dispatch_class)`` and also
    aggregates per dispatch class across tenants (tenant ``"*"``) and
    over everything (``"*"``/``"*"``).  The tail attribution averages the
    slowest :data:`TAIL_FRACTION` of each group.

    Returns ``{"invocations", "phases", "groups": {"tenant/class":
    {...}}}`` — see :func:`_group_report` for the per-group fields.
    """
    grouped: Dict[Tuple[str, str], List[Tuple[float, Dict[str, float]]]] = {}

    def add(key: Tuple[str, str], trace: InvocationTrace, phases) -> None:
        grouped.setdefault(key, []).append((trace.e2e_seconds, phases))

    total = 0
    for trace in recorder.invocations:
        if trace.status != "completed":
            continue
        phases = trace.phases()
        if phases is None:
            continue
        total += 1
        dispatch_class = trace.dispatch_class or "unknown"
        add((trace.tenant, dispatch_class), trace, phases)
        add(("*", dispatch_class), trace, phases)
        add(("*", "*"), trace, phases)

    groups = {
        f"{tenant}/{dispatch_class}": _group_report(rows)
        for (tenant, dispatch_class), rows in sorted(grouped.items())
    }
    return {
        "invocations": total,
        "phases": list(PHASES),
        "tail_fraction": TAIL_FRACTION,
        "groups": groups,
    }


def render_decomposition(report: Dict[str, object]) -> str:
    """Fixed-width table of the decomposition for terminal display."""
    phases = report["phases"]
    header = (
        f"{'group':<24} {'n':>7} {'mean ms':>9} {'p99 ms':>9}  "
        + "  ".join(f"{phase:>9}" for phase in phases)
    )
    lines = [header, "-" * len(header)]
    for name, group in report["groups"].items():
        share = group["phase_share_of_mean"]
        cells = "  ".join(f"{share[phase]:>8.1%}" for phase in phases)
        lines.append(
            f"{name:<24} {group['count']:>7} {group['mean_ms']:>9.2f} "
            f"{group['p99_ms']:>9.2f}  {cells}"
        )
    lines.append(
        "(phase columns: share of the group's mean end-to-end latency)"
    )
    return "\n".join(lines)
