"""Deterministic random-number streams.

Different subsystems (platform jitter, runtime behaviour, load generation)
draw from *independent* named streams derived from one master seed, so adding
randomness to one subsystem never perturbs another subsystem's sequence.
"""

from __future__ import annotations

import hashlib
import random
from types import MappingProxyType
from typing import Dict, Mapping


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Documented fallback streams for components constructed *without* an
#: injected RNG.  The seeds are the historical ad-hoc constants those
#: components carried inline (``Container``'s ``random.Random(11)``,
#: ``Controller``'s ``random.Random(31)``, …), hoisted here so every
#: default stream is named, discoverable, and covered by the determinism
#: lint's D002 expectations.  The values are load-bearing: changing one
#: changes every simulation that relies on the component's default
#: jitter sequence, so treat this table as append-only.
FALLBACK_SEEDS: Mapping[str, int] = MappingProxyType({
    #: Per-container execution jitter (``faas.container.Container``).
    "faas.container": 11,
    #: Controller platform-overhead jitter (``faas.controller.Controller``).
    "faas.controller": 31,
    #: Invoker-level jitter and derived per-container streams
    #: (``faas.invoker.Invoker``).
    "faas.invoker": 23,
    #: Isolation-mechanism jitter when constructed bare
    #: (``core.policy.IsolationMechanism``).
    "core.policy": 7,
    #: Runtime execution-time jitter (``runtime.base.FunctionRuntime`` and
    #: ``runtime.build_runtime``).
    "runtime": 0,
    #: The CLI leak demo's mechanism stream (``cli.cmd_demo_leak``).
    "cli.demo-leak": 1,
})


def fallback_stream(component: str) -> random.Random:
    """Return the documented, deterministically seeded fallback stream.

    ``component`` must name an entry in :data:`FALLBACK_SEEDS`.  Each call
    returns a *fresh* generator so two components sharing a fallback name
    never entangle their sequences — exactly the behaviour of the inline
    ``random.Random(<constant>)`` fallbacks this replaces, bit for bit.
    """
    try:
        seed = FALLBACK_SEEDS[component]
    except KeyError:
        raise ValueError(
            f"unknown fallback stream {component!r}; "
            f"known: {', '.join(sorted(FALLBACK_SEEDS))}"
        ) from None
    return random.Random(seed)


class RngStreams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self._master_seed, name))
        return self._streams[name]

    def reset(self) -> None:
        """Drop all derived streams; subsequent calls re-seed from scratch."""
        self._streams.clear()

    def expovariate(self, name: str, rate: float) -> float:
        """Draw an exponential inter-arrival gap (seconds) at ``rate`` per second.

        The building block of Poisson arrival processes (open-loop load
        generation): successive draws from one stream are the gaps between
        arrivals of a memoryless process with mean rate ``rate``.
        """
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive (got {rate})")
        return self.stream(name).expovariate(rate)
