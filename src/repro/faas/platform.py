"""The single-invoker FaaS platform facade.

:class:`FaaSPlatform` wires the pieces together the way the paper's
deployment does — clients talk to a controller, the controller routes to an
invoker hosting warm containers — and exposes the operations experiments
need: deploy an action under a chosen isolation configuration, fire requests
(synchronously or asynchronously), and collect latency/throughput metrics.

Since the cluster refactor this is a thin specialisation of
:class:`~repro.faas.cluster.FaaSCluster` with exactly one invoker: every
scheduling policy routes all traffic to it, pools never grow beyond the
pre-warmed count unless configured to, and the paper's experiments run
unchanged.  Use :class:`FaaSCluster` directly for multi-invoker topologies.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimulationConfig
from repro.errors import PlatformError
from repro.faas.cluster import FaaSCluster
from repro.faas.invoker import Invoker
from repro.kernel.kernel import SimKernel


class FaaSPlatform(FaaSCluster):
    """An OpenWhisk-like deployment: controller + one invoker + warm containers."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        *,
        verify_isolation: bool = False,
    ) -> None:
        if config is not None and config.invokers != 1:
            raise PlatformError(
                "FaaSPlatform is the single-invoker deployment; "
                "use FaaSCluster for invokers > 1"
            )
        super().__init__(config, verify_isolation=verify_isolation)

    @property
    def invoker(self) -> Invoker:
        """The deployment's only invoker."""
        return self.invokers[0]

    @property
    def kernel(self) -> SimKernel:
        """The simulated kernel backing the invoker's containers."""
        return self.invokers[0].kernel
