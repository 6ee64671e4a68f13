"""AIMD quota and weight tuning: SLO attainment without hand-set knobs.

Before the control plane, ``tenant_quota_rps`` and WFQ weights were static
numbers an operator had to guess.  The :class:`QuotaTuner` replaces the
guess with a feedback loop in the classic additive-increase /
multiplicative-decrease shape:

* While some tenant's SLO is **violated**, the tenants *causing* the
  pressure — the highest-demand tenants that are not themselves violating
  an objective — have their admission rate cut multiplicatively
  (``rate *= decrease_factor``), and the violating tenants' fair-queue
  weights are boosted so the capacity that remains is scheduled toward
  them first.
* While every declared SLO is **met**, previously cut tenants recover
  additively (``rate += step``) toward their uncapped demand, and boosted
  weights decay back to 1 — a compliant tenant is not punished forever
  for a past burst.

The multiplicative cut reacts within one control tick; the additive
recovery probes gently for the highest admission rate the SLOs tolerate.
The resulting sawtooth *is* the discovered operating point — the quota an
operator would otherwise have had to find by bisection.

All state is per-tenant and updated in sorted tenant order from the
deterministic simulation clock, so two identical runs tune identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import PlatformError
from repro.faas.admission import TenantQuotas
from repro.faas.controlplane.slo import TenantSLOStatus

#: Actuator signature for fair-queue weights: ``(tenant, weight) -> ignored``.
WeightActuator = Callable[[str, float], object]


class QuotaTuner:
    """Drives :class:`~repro.faas.admission.TenantQuotas` rates and WFQ
    weights from windowed SLO verdicts via AIMD."""

    #: A cut multiplies the offender's rate (or its demand) by this.
    decrease_factor = 0.5
    #: Floor of every tuned rate, and of every additive raise step.
    min_rps = 1.0
    #: Tenants cut per violated tick, worst offender first.
    max_cuts_per_tick = 1
    #: A violated tenant's weight is multiplied by this, up to ``max_weight``.
    weight_boost = 2.0
    max_weight = 8.0

    def __init__(
        self,
        *,
        increase_fraction: float = 0.05,
        cut_hold_ticks: int = 8,
        raise_hold_ticks: int = 4,
    ) -> None:
        if increase_fraction <= 0:
            raise PlatformError("increase_fraction must be positive")
        if cut_hold_ticks < 1 or raise_hold_ticks < 1:
            raise PlatformError("hold tick counts must be >= 1")
        self.increase_fraction = increase_fraction
        #: Minimum ticks between two multiplicative cuts.  The monitor's
        #: window keeps remembering a spike for a while after a cut bit,
        #: so reacting to every violated tick would cascade one episode's
        #: worth of violation into cut-to-the-floor overcorrection; one
        #: cut per response window lets the last cut show its effect.
        self.cut_hold_ticks = cut_hold_ticks
        #: Consecutive clean ticks required before an additive raise (and
        #: a weight decay) — a single clean window right after a cut is
        #: not yet evidence the pressure is gone.
        self.raise_hold_ticks = raise_hold_ticks
        self._ticks = 0
        self._last_cut_tick = -cut_hold_ticks
        self._clean_streak = 0
        #: Per-tenant tuned admission rates (absent = untouched/unlimited).
        self._rates: Dict[str, float] = {}
        #: The demand each tenant showed at its first cut — the anchor the
        #: additive recovery step is sized from (a fixed absolute step
        #: would be glacial for a 1000 rps tenant and violent for a 5 rps
        #: one).
        self._anchors: Dict[str, float] = {}
        #: Per-tenant boosted weights currently in force (absent = 1.0).
        self._weights: Dict[str, float] = {}
        self.rate_cuts = 0
        self.rate_raises = 0
        self.weight_boosts = 0

    def rate_for(self, tenant: str) -> Optional[float]:
        """The tuned admission rate for ``tenant`` (None = never limited)."""
        return self._rates.get(tenant)

    def weight_for(self, tenant: str) -> float:
        """The fair-queue weight currently in force for ``tenant``."""
        return self._weights.get(tenant, 1.0)

    def apply(
        self,
        statuses: Mapping[str, TenantSLOStatus],
        *,
        quotas: Optional[TenantQuotas] = None,
        weights: Optional[WeightActuator] = None,
    ) -> List[str]:
        """React to one assessment; returns human-readable actions taken."""
        self._ticks += 1
        actions: List[str] = []
        violated = [s for s in statuses.values() if s.violated]
        if violated:
            self._clean_streak = 0
            if self._ticks - self._last_cut_tick >= self.cut_hold_ticks:
                cut_actions = self._decrease(statuses, violated, quotas)
                if cut_actions:
                    self._last_cut_tick = self._ticks
                actions.extend(cut_actions)
            actions.extend(self._boost_weights(violated, weights))
        else:
            self._clean_streak += 1
            if self._clean_streak >= self.raise_hold_ticks:
                self._clean_streak = 0
                actions.extend(self._increase(quotas))
                actions.extend(self._decay_weights(weights))
        return actions

    # ------------------------------------------------------------------
    # Multiplicative decrease (violation present)
    # ------------------------------------------------------------------

    def _offenders(
        self,
        statuses: Mapping[str, TenantSLOStatus],
        violated: List[TenantSLOStatus],
    ) -> List[TenantSLOStatus]:
        """Highest-demand tenants that are not themselves violating.

        A tenant missing its own objective is a *victim* of the pressure,
        not its source — cutting it deeper would be throttling the patient.
        Ties break on the tenant name so the choice is deterministic.
        """
        protected = {s.tenant for s in violated}
        candidates = [
            s
            for s in statuses.values()
            if s.tenant not in protected and s.demand_rps > 0
        ]
        candidates.sort(key=lambda s: (-s.demand_rps, s.tenant))
        return candidates

    def _decrease(
        self,
        statuses: Mapping[str, TenantSLOStatus],
        violated: List[TenantSLOStatus],
        quotas: Optional[TenantQuotas],
    ) -> List[str]:
        actions: List[str] = []
        for status in self._offenders(statuses, violated)[: self.max_cuts_per_tick]:
            tenant = status.tenant
            # First cut anchors at the observed demand: the tenant was
            # effectively admitted at that rate, so the next enforceable
            # rate below it is demand * decrease_factor.
            current = self._rates.get(tenant, status.demand_rps)
            new_rate = max(self.min_rps, current * self.decrease_factor)
            if new_rate >= current:
                continue  # already at the floor
            self._anchors.setdefault(tenant, max(status.demand_rps, self.min_rps))
            self._rates[tenant] = new_rate
            self.rate_cuts += 1
            if quotas is not None:
                quotas.set_rate(tenant, new_rate, burst=max(1.0, new_rate / 2))
            actions.append(f"cut:{tenant}:{new_rate:.1f}rps")
        return actions

    def _boost_weights(
        self, violated: List[TenantSLOStatus], weights: Optional[WeightActuator]
    ) -> List[str]:
        actions: List[str] = []
        for status in sorted(violated, key=lambda s: s.tenant):
            tenant = status.tenant
            boosted = min(self.max_weight, self.weight_for(tenant) * self.weight_boost)
            if boosted == self.weight_for(tenant):
                continue
            self._weights[tenant] = boosted
            self.weight_boosts += 1
            if weights is not None:
                weights(tenant, boosted)
            actions.append(f"boost:{tenant}:x{boosted:g}")
        return actions

    # ------------------------------------------------------------------
    # Additive increase (all SLOs met)
    # ------------------------------------------------------------------

    def _increase(self, quotas: Optional[TenantQuotas]) -> List[str]:
        actions: List[str] = []
        for tenant in sorted(self._rates):
            anchor = self._anchors.get(tenant, self._rates[tenant])
            step = max(self.min_rps, anchor * self.increase_fraction)
            new_rate = self._rates[tenant] + step
            if new_rate >= anchor:
                # Fully recovered: the tenant is back to the demand it
                # showed when first cut — stop tracking *and clear the
                # quota override*, so it is again genuinely unlimited
                # (until the next violation), not permanently capped at
                # the anchor.
                del self._rates[tenant]
                del self._anchors[tenant]
                if quotas is not None:
                    quotas.clear_rate(tenant)
                actions.append(f"restore:{tenant}")
                continue
            self._rates[tenant] = new_rate
            self.rate_raises += 1
            if quotas is not None:
                quotas.set_rate(tenant, new_rate, burst=max(1.0, new_rate / 2))
            actions.append(f"raise:{tenant}:{new_rate:.1f}rps")
        return actions

    def _decay_weights(self, weights: Optional[WeightActuator]) -> List[str]:
        actions: List[str] = []
        for tenant in sorted(self._weights):
            decayed = max(1.0, self._weights[tenant] / self.weight_boost)
            if decayed == 1.0:
                del self._weights[tenant]
            else:
                self._weights[tenant] = decayed
            if weights is not None:
                weights(tenant, decayed)
            actions.append(f"decay:{tenant}:x{decayed:g}")
        return actions
