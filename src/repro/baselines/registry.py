"""Registry of isolation mechanisms by configuration name.

Experiments and the FaaS platform refer to configurations by the short names
the paper uses: ``base``, ``gh``, ``gh-nop``, ``fork``, ``faasm`` plus the
two related-work comparison points ``cold`` and ``criu``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Type

from repro.baselines.coldstart import ColdStartIsolation
from repro.baselines.criu import CriuIsolation
from repro.baselines.faasm import FaasmIsolation
from repro.baselines.forkiso import ForkIsolation
from repro.baselines.warm import WarmReuseBaseline
from repro.core.policy import GroundhogMechanism, GroundhogNopMechanism, IsolationMechanism
from repro.errors import IsolationError
from repro.runtime.profiles import FunctionProfile

#: All available configurations, keyed by the name used in the paper's plots.
#: Read-only: a registry mutated at runtime would be exactly the mutable
#: module-level state the determinism lint (D005) forbids.
MECHANISMS: Mapping[str, Type[IsolationMechanism]] = MappingProxyType({
    "base": WarmReuseBaseline,
    "gh": GroundhogMechanism,
    "gh-nop": GroundhogNopMechanism,
    "fork": ForkIsolation,
    "faasm": FaasmIsolation,
    "cold": ColdStartIsolation,
    "criu": CriuIsolation,
})


def mechanism_class(name: str) -> Type[IsolationMechanism]:
    """Return the mechanism class registered under ``name``."""
    try:
        return MECHANISMS[name]
    except KeyError:
        raise IsolationError(
            f"unknown isolation mechanism {name!r}; "
            f"known: {', '.join(sorted(MECHANISMS))}"
        ) from None


def create_mechanism(name: str, profile: FunctionProfile, **kwargs) -> IsolationMechanism:
    """Instantiate the mechanism registered under ``name`` for ``profile``."""
    return mechanism_class(name)(profile, **kwargs)
