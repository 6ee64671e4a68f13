"""Rule catalogue for the determinism linter.

Every guarantee the reproduction makes — ``run_replicated`` fanning seeds
across spawn workers bit-identically, ``ClusterIndex`` staying bit-identical
to its scan oracle, the warmth spectrum and the flight recorder being
behaviourally invisible when off — is a *determinism* guarantee.  The rules
below reject, at review time, the source patterns that historically break
such guarantees at runtime:

``D001`` — **no wall-clock reads in sim-domain code.**
    ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()`` (and
    their ``_ns`` variants), ``datetime.now()`` / ``utcnow()`` /
    ``today()``.  Simulated components must read the
    :class:`~repro.sim.clock.VirtualClock`; a wall-clock read makes two
    runs of the same seed diverge.  Harness modules that *measure* real
    RSS/throughput (the perf harness ``analysis/perf.py``, ``scripts/``,
    ``benchmarks/``) are exempted by the path policy; the experiment
    drivers in ``analysis/experiments.py`` are not.

``D002`` — **no ambient randomness.**
    Draws from the shared module-level generator (``random.random()``,
    ``random.choice()``, ``random.seed()``, …) and *unseeded*
    ``random.Random()`` construction.  All randomness must flow through an
    injected ``random.Random`` or a named
    :class:`~repro.sim.rng.RngStreams` stream, so that adding a draw to
    one subsystem never perturbs another subsystem's sequence.

``D003`` — **no iteration over an unordered set whose order escapes.**
    Iterating a ``set`` / ``frozenset`` (or a container of sets, e.g. a
    ``Dict[str, Set[str]]`` entry or a ``defaultdict(set)``) in a ``for``
    loop, comprehension, ``list()`` / ``tuple()`` / ``iter()`` /
    ``enumerate()`` conversion, ``*`` unpacking, or ``str.join`` lets the
    hash-seed-dependent element order escape into returns, accumulation or
    scheduling.  Wrap the iterable in ``sorted(...)``.  Order-insensitive
    reductions (``len`` / ``sum`` / ``min`` / ``max`` / ``any`` / ``all``
    / membership / building another set) are not flagged.

``D004`` — **no ``id()``-based ordering.**
    ``id()`` inside a sort key (``sorted`` / ``.sort`` / ``min`` / ``max``
    / ``heapq.nsmallest`` / ``nlargest``), inside an ordering comparison
    (``<`` / ``<=`` / ``>`` / ``>=``), or inside a ``heapq.heappush``
    entry.  CPython object addresses vary run to run, so an ``id()``
    tie-break is nondeterminism by construction.

``D005`` — **no mutable module-level state, no mutable default args.**
    A module-level ``list`` / ``dict`` / ``set`` / ``bytearray`` /
    ``deque`` / ``defaultdict`` / ``Counter`` / ``OrderedDict`` /
    ``itertools.count`` binding is shared across every simulation in the
    process — state leaks between runs and across ``run_replicated``
    workers.  Mutable default arguments are the classic single-instance
    variant of the same bug.  Use tuples, ``types.MappingProxyType``, or
    instance state owned by the simulation.

``D006`` — **no ambient-input reads outside the config/CLI boundary.**
    ``os.environ`` / ``os.getenv`` / ``os.urandom`` / ``uuid.*`` /
    ``secrets.*`` make behaviour depend on the host environment or the
    kernel entropy pool.  Configuration enters through
    ``SimulationConfig`` and the CLI (``config.py`` / ``cli.py`` and the
    harness, exempted by the path policy); everything below that boundary
    must be a pure function of its inputs.

``D000`` is reserved for linter diagnostics (malformed suppressions,
unknown rule ids, unparseable files); it cannot be suppressed.

Suppression etiquette: ``# detlint: ignore[D003] <reason>`` on the flagged
line.  The reason is mandatory — a suppression without one is itself a
``D000`` finding — because the justification is the review artefact: it
is what tells the next reader why this occurrence is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import FrozenSet, Mapping


@dataclass(frozen=True)
class Rule:
    """One determinism rule: identity, headline, and one-line rationale."""

    rule_id: str
    title: str
    rationale: str


RULES: Mapping[str, Rule] = MappingProxyType({
    "D000": Rule(
        "D000",
        "linter diagnostic",
        "malformed suppression, unknown rule id, or unparseable file; "
        "not suppressible",
    ),
    "D001": Rule(
        "D001",
        "wall-clock read in sim-domain code",
        "simulated components must read the VirtualClock; a wall-clock "
        "read makes equal-seed runs diverge",
    ),
    "D002": Rule(
        "D002",
        "ambient randomness",
        "module-level random.* draws and unseeded random.Random() bypass "
        "the injected named RngStreams, entangling subsystems' sequences",
    ),
    "D003": Rule(
        "D003",
        "unordered set iteration escapes",
        "set element order depends on the hash seed; iterate "
        "sorted(...) so the order cannot leak into results or scheduling",
    ),
    "D004": Rule(
        "D004",
        "id()-based ordering",
        "object addresses vary run to run, so id() sort keys and "
        "tie-breaks are nondeterministic by construction",
    ),
    "D005": Rule(
        "D005",
        "mutable module-level state or mutable default argument",
        "process-global mutables leak state across simulations and "
        "run_replicated workers",
    ),
    "D006": Rule(
        "D006",
        "ambient input outside the config/CLI boundary",
        "os.environ/os.urandom/uuid/secrets make behaviour depend on the "
        "host; configuration enters via SimulationConfig and the CLI only",
    ),
})

#: Rule ids a suppression comment may name (D000 is not suppressible).
SUPPRESSIBLE_RULE_IDS: FrozenSet[str] = frozenset(
    rule_id for rule_id in RULES if rule_id != "D000"
)
