"""repro — a reproduction of *Groundhog: Efficient Request Isolation in FaaS*.

Groundhog (Alzayat, Mace, Druschel, Garg — EuroSys 2023) adds sequential
request isolation to container-reusing FaaS platforms by snapshotting the
function process after initialisation and rolling it back to that snapshot
after every request, using soft-dirty-bit tracking, ``/proc`` introspection
and ptrace syscall injection.

This package rebuilds the whole system over a simulated OS substrate (see
``DESIGN.md``): the virtual-memory and process layers Groundhog manipulates,
the Groundhog manager itself, the baselines it is compared against, an
OpenWhisk-like FaaS platform, the paper's benchmark suites, and experiment
drivers that regenerate every table and figure of the evaluation.

Quick start::

    from repro import FaaSPlatform, ActionSpec, find_benchmark

    platform = FaaSPlatform()
    spec = find_benchmark("pyaes")
    platform.deploy(ActionSpec.for_profile(spec.profile, "gh"))
    result = platform.invoke_sync("pyaes", b"hello", caller="alice")
    print(result.e2e_seconds, result.response["ok"])
"""

from repro.config import LATENCY_CONFIG, PAGE_SIZE, THROUGHPUT_CONFIG, SimulationConfig
from repro.errors import ReproError
from repro.core import (
    GroundhogManager,
    GroundhogMechanism,
    GroundhogNopMechanism,
    Restorer,
    Snapshotter,
)
from repro.baselines import create_mechanism, MECHANISMS
from repro.faas import (
    ActionSpec,
    ClosedLoopClient,
    Container,
    ControlPlane,
    FaaSCluster,
    FaaSPlatform,
    Invocation,
    MultiActionSaturatingClient,
    OpenLoopClient,
    SaturatingClient,
    TenantMix,
    TenantQuotas,
    TenantSLO,
    azure_diurnal_arrivals,
    azure_functions_arrivals,
    load_azure_trace_csv,
)
from repro.runtime import FunctionProfile, Language, build_runtime
from repro.workloads import (
    all_benchmarks,
    benchmarks_by_suite,
    find_benchmark,
    microbenchmark_profile,
    representative_benchmarks,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PAGE_SIZE",
    "SimulationConfig",
    "LATENCY_CONFIG",
    "THROUGHPUT_CONFIG",
    "ReproError",
    "GroundhogManager",
    "GroundhogMechanism",
    "GroundhogNopMechanism",
    "Snapshotter",
    "Restorer",
    "create_mechanism",
    "MECHANISMS",
    "FaaSPlatform",
    "FaaSCluster",
    "ActionSpec",
    "Container",
    "Invocation",
    "ClosedLoopClient",
    "OpenLoopClient",
    "SaturatingClient",
    "MultiActionSaturatingClient",
    "TenantMix",
    "TenantQuotas",
    "TenantSLO",
    "ControlPlane",
    "azure_functions_arrivals",
    "azure_diurnal_arrivals",
    "load_azure_trace_csv",
    "FunctionProfile",
    "Language",
    "build_runtime",
    "all_benchmarks",
    "benchmarks_by_suite",
    "find_benchmark",
    "representative_benchmarks",
    "microbenchmark_profile",
]
