"""Workload definitions: checked-in constants turned into a cluster.

``workloads.json`` holds every constant a workload needs (cluster knobs,
frozen action names, offered rate, load shape, run sizing), so a change to
the program cannot move a workload's inputs.  Clusters are built only from
``SimulationConfig`` fields and the ``repro`` package's top-level exports.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Tuple

from arrivals import Shape

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fixed virtual-time slices of one replay (more follow while it drains).
SLICES_PER_RUN = 400
#: Rounds of timed set-ups; ``setup_s`` is the median over rounds.
SETUP_ROUNDS = 5

#: Fields the program plans to retire, with the value of the single path
#: that will remain.  One is set only while it exists and its default
#: differs from that value.
RETIRING_FIELDS = {"metrics_mode": "sketch", "cluster_index": True}


def load() -> Dict[str, Any]:
    with open(os.path.join(HERE, "workloads.json")) as handle:
        return json.load(handle)


def names() -> List[str]:
    return list(load()["workloads"])


class Workload:
    """One workload's constants and the run sizing derived from them."""

    def __init__(self, name: str, seconds: int) -> None:
        data = load()["workloads"]
        if name not in data:
            raise KeyError(f"unknown workload {name!r}; choose one of {sorted(data)}")
        spec = data[name]
        self.name = name
        self.spec = spec
        self.shape = Shape(**spec["shape"])
        self.actions: List[str] = list(spec["actions"])
        self.tenants: List[str] = list(spec["tenants"])
        self.tenant_shares: List[float] = list(spec["tenant_shares"])
        #: Arrivals are sized from the run length: a host as fast as the
        #: reference replays them in about ``seconds`` seconds.
        self.count = int(spec["arrivals_per_run_second"] * seconds)
        self.duration = self.count / self.shape.mean_rps
        self.period = self.duration / self.shape.cycles
        self.setups_per_round = int(spec["setups_per_round"])

    def config(self, repro: Any) -> Any:
        fields = dict(self.spec["config"])
        fraction = self.spec.get("keep_alive_period_fraction")
        if fraction is not None:
            fields["keep_alive_seconds"] = fraction * self.period
        known = {field.name: field for field in dataclasses.fields(repro.SimulationConfig)}
        for field_name, single_path in RETIRING_FIELDS.items():
            field = known.get(field_name)
            if field is not None and field.default != single_path:
                fields[field_name] = single_path
        return repro.SimulationConfig(**fields)

    def _profiles(self, repro: Any) -> List[Any]:
        profiles = []
        for function in self.spec["functions"]:
            if function["kind"] == "microbench":
                profiles.append(
                    repro.microbenchmark_profile(
                        function["mapped_pages"], function["dirtied_pages"]
                    )
                )
            else:
                profiles.append(
                    repro.find_benchmark(function["name"], function["language"]).profile
                )
        return profiles

    def build(self, repro: Any) -> Tuple[Any, List[str]]:
        """Construct the cluster and deploy every action (the set-up)."""
        cluster = repro.FaaSCluster(self.config(repro))
        profiles = self._profiles(repro)
        for index, action in enumerate(self.actions):
            profile = profiles[index % len(profiles)]
            cluster.deploy(
                repro.ActionSpec.for_profile(profile, self.spec["mechanism"], name=action)
            )
        return cluster, self.actions
