"""Per-rule path policy: which rules are waived where, and why.

The determinism rules protect the *sim domain* — code whose behaviour must
be a pure function of ``(config, seed)``.  The harness around it (the
perf harness that measures real RSS and wall-clock throughput, the
CLI/config boundary where environment knobs legitimately enter, the
benchmark and script layers) intentionally touches the outside world, so
each waiver below names the rule it relaxes, the path glob it applies to,
and the reason — the table is the checked-in review artefact, the exact
analogue of an inline ``# detlint: ignore[...]`` with a written
justification, but for a whole file's *role* rather than one line.

Patterns match with :func:`fnmatch.fnmatch` against the POSIX form of the
scanned path; a pattern also matches when the path merely *ends with* it
(so ``src/repro/cli.py`` matches ``/root/repo/src/repro/cli.py`` and any
checkout prefix).  Everything not matched by a waiver gets the full rule
set: the default is strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, Tuple


@dataclass(frozen=True)
class PolicyEntry:
    """One waiver: ``rule_id`` is not enforced under ``pattern``."""

    rule_id: str
    pattern: str
    reason: str


def _harness_entries(rule_id: str, reason: str) -> Tuple[PolicyEntry, ...]:
    """The same waiver across the four harness layers."""
    return (
        PolicyEntry(rule_id, "scripts/*.py", reason),
        PolicyEntry(rule_id, "benchmarks/*.py", reason),
        PolicyEntry(rule_id, "examples/*.py", reason),
        PolicyEntry(rule_id, "tests/*.py", reason),
        PolicyEntry(rule_id, "tests/*/*.py", reason),
    )


#: The checked-in waiver table.  Keep it short: every entry here is a hole
#: in the lint, and a new entry needs the same scrutiny as a suppression.
DEFAULT_POLICY: Tuple[PolicyEntry, ...] = (
    # The perf harness measures *real* wall-clock throughput and RSS; that
    # is its job, not a determinism leak — the simulated results it
    # cross-checks remain pure functions of (config, seed).
    PolicyEntry(
        "D001",
        "src/repro/analysis/perf.py",
        "perf harness: measures real wall-clock throughput and RSS",
    ),
    *_harness_entries(
        "D001", "harness layer: real-time measurement is the point"
    ),
    # Configuration (and therefore environment knobs like
    # REPRO_BENCH_QUICK / REPRO_PERF_TOLERANCE) enters through the
    # config/CLI boundary and the harness only.
    PolicyEntry(
        "D006", "src/repro/config.py", "config boundary: env knobs enter here"
    ),
    PolicyEntry(
        "D006", "src/repro/cli.py", "CLI boundary: env knobs enter here"
    ),
    *_harness_entries(
        "D006", "harness layer: env knobs (bench scale, tolerances) enter here"
    ),
    # Scripts and benchmarks are one-shot processes: module-level tables
    # cannot leak state across simulations the way sim-domain globals can.
    *_harness_entries(
        "D005", "one-shot harness process: no cross-simulation state to leak"
    ),
)


class PathPolicy:
    """Resolve which rules are waived for a given path."""

    def __init__(self, entries: Tuple[PolicyEntry, ...] = DEFAULT_POLICY) -> None:
        self._entries = entries

    @property
    def entries(self) -> Tuple[PolicyEntry, ...]:
        """The waiver table, in declaration order."""
        return self._entries

    def waivers_for(self, posix_path: str) -> Dict[str, str]:
        """Map rule id -> waiver reason for every rule waived at ``posix_path``."""
        waived: Dict[str, str] = {}
        for entry in self._entries:
            if entry.rule_id in waived:
                continue
            if _pattern_matches(posix_path, entry.pattern):
                waived[entry.rule_id] = entry.reason
        return waived


def _pattern_matches(posix_path: str, pattern: str) -> bool:
    """True when ``pattern`` matches the path or any suffix of it."""
    if fnmatch(posix_path, pattern):
        return True
    return fnmatch(posix_path, "*/" + pattern)
