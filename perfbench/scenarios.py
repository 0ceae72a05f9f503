"""The benchmark's four workloads, each one call to a scenario's public entry.

Every workload builds a fresh cluster, so modeled caches (blade page caches,
switch directory, TLBs) start empty in every run; nothing is warmed first.

Each ``run_*`` function takes the workload seed and a size (``"full"`` for
measured runs, ``"tiny"`` for the benchmark's own tests) and returns an
:class:`Outcome`: the simulator's :class:`RunResult`, the count of ops the
workload completed, the simulated latency samples the end-to-end latency
metrics read, and the output checks.  A check compares what the workload
issued with what the simulator reports as completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.alloc.scenario import ChurnScenarioConfig, run_churn
from repro.multirack.runner import MultiRackScenarioConfig, run_multirack
from repro.runner import RunnerConfig, run_system
from repro.service import ServiceConfig, run_service
from repro.sim.stats import RunResult
from repro.workloads.tensorflow_like import TensorFlowLikeWorkload

# Workload sizes.  "full" sizes give 1.5-4 s of host time per run on a
# 2-core x86 container, and at least 10 latency samples above each p99.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "tf-replay": {"full": {"accesses_per_thread": 60_000},
                  "tiny": {"accesses_per_thread": 2_000}},
    "multirack-openloop": {"full": {"accesses_per_thread": 256},
                           "tiny": {"accesses_per_thread": 16}},
    "kvs-serve-chaos": {"full": {"requests_per_client": 3_072},
                        "tiny": {"requests_per_client": 24}},
    "malloc-churn": {"full": {"ops_per_thread": 400},
                     "tiny": {"ops_per_thread": 40}},
}

#: simulated latency limit (us) behind ``sim_slo_ok_frac`` for the workloads
#: whose scenario defines none.  tf-replay: an uncontended fault costs
#: 9.75 us, so a fault over 10 us waited behind another transaction.
#: multirack-openloop: about twice the median request latency at the
#: offered load.  malloc-churn: 10 % over the median syscall round trip
#: through the shared control CPU.
LATENCY_LIMIT_US = {
    "tf-replay": 10.0,
    "multirack-openloop": 150.0,
    "malloc-churn": 55.0,
}


@dataclass
class Outcome:
    """What one workload run produced, as the benchmark reads it."""

    result: RunResult
    #: simulated ops completed (the numerator of ``ops_per_cpu_s``).
    ops: int
    #: simulated latency category of ``sim_lat_p50_us`` / ``sim_lat_p99_us``.
    latency_category: str
    #: latency limit of ``sim_slo_ok_frac`` (simulated us).
    latency_limit_us: float
    #: ops issued: the denominator of ``sim_slo_ok_frac``.
    issued: int
    #: ``(description, passed)`` output checks.
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    def samples(self) -> Sequence[float]:
        return self.result.stats.latencies.get(self.latency_category, ())


def _check(checks: List[Tuple[str, bool]], what: str, got: int, want: int) -> None:
    checks.append((f"{what}: {got} == {want}", got == want))


def run_tf_replay(seed: int, size: str, retired: Callable[[], int]) -> Outcome:
    """Closed-loop replay of the TensorFlow-like trace on a 2-blade rack.

    ``retired()`` returns the accesses ``ComputeBlade.run_thread`` reported
    as performed, counted by the caller's hook.
    """
    threads = 4
    per_thread = SIZES["tf-replay"][size]["accesses_per_thread"]
    workload = TensorFlowLikeWorkload(threads, accesses_per_thread=per_thread, seed=seed)
    result = run_system(
        "mind", workload, 2, RunnerConfig(num_memory_blades=2, epoch_us=2_000.0)
    )
    checks: List[Tuple[str, bool]] = []
    _check(checks, "accesses issued", result.total_accesses, threads * per_thread)
    _check(checks, "accesses retired by threads", retired(), result.total_accesses)
    faults = len(result.stats.latencies.get("fault", ()))
    _check(checks, "faults timed", faults, result.stats.counter("remote_accesses"))
    return Outcome(
        result=result,
        ops=result.total_accesses,
        latency_category="fault",
        latency_limit_us=LATENCY_LIMIT_US["tf-replay"],
        issued=faults,
        checks=checks,
    )


def run_multirack_openloop(seed: int, size: str) -> Outcome:
    """Open-loop Poisson load on 4 racks x 8 blades with cross-rack sharing."""
    per_thread = SIZES["multirack-openloop"][size]["accesses_per_thread"]
    config = MultiRackScenarioConfig(
        racks=4,
        compute_blades_per_rack=8,
        threads_per_blade=1,
        pages_per_rack=512,
        cache_capacity_pages=512,
        cross_fraction=0.2,
        read_ratio=0.7,
        arrival_process="poisson",
        arrival_rate_per_thread=0.004,
        request_size=4,
        accesses_per_thread=per_thread,
        seed=seed,
    )
    result = run_multirack(config)
    stats = result.stats
    threads = config.racks * config.compute_blades_per_rack * config.threads_per_blade
    requests = threads * -(-per_thread // config.request_size)
    checks: List[Tuple[str, bool]] = []
    _check(checks, "accesses issued", result.total_accesses, threads * per_thread)
    _check(checks, "requests arrived", stats.counter("openloop_arrivals"), requests)
    _check(checks, "requests completed", stats.counter("openloop_completions"), requests)
    _check(checks, "requests timed", len(stats.latencies.get("openloop:latency", ())),
           requests)
    return Outcome(
        result=result,
        ops=result.total_accesses,
        latency_category="openloop:latency",
        latency_limit_us=LATENCY_LIMIT_US["multirack-openloop"],
        issued=requests,
        checks=checks,
    )


def run_kvs_serve_chaos(seed: int, size: str) -> Outcome:
    """Multi-tenant KVS serving with switch crash, packet loss and a blade
    outage, storm defense on."""
    per_client = SIZES["kvs-serve-chaos"][size]["requests_per_client"]
    served = run_service(
        ServiceConfig(
            chaos="full", storm_defense=True, requests_per_client=per_client, seed=seed
        )
    )
    cfg = served.config
    tenants = served.tenants
    arrivals = sum(t.arrivals for t in tenants)
    completions = sum(t.completions for t in tenants)
    failed = sum(t.failed for t in tenants)
    shed = sum(t.shed for t in tenants)
    retries = sum(t.retries for t in tenants)
    latencies = served.result.stats.latencies.get("svc:latency", ())
    checks: List[Tuple[str, bool]] = []
    _check(checks, "requests arrived", arrivals,
           cfg.tenants * cfg.clients_per_tenant * per_client)
    # A request that is finally shed (degraded mode, or out of retries) is
    # counted in ``failed``; ``shed`` counts every rejected attempt.
    _check(checks, "arrivals settled (completed + failed)", completions + failed, arrivals)
    _check(checks, "attempts settled (completed + shed)", completions + shed,
           arrivals + retries)
    _check(checks, "completions timed", len(latencies), completions)
    return Outcome(
        result=served.result,
        ops=completions,
        latency_category="svc:latency",
        latency_limit_us=cfg.slo_p999_us,
        issued=arrivals,
        checks=checks,
    )


def run_malloc_churn(seed: int, size: str) -> Outcome:
    """First-fit mmap/munmap storm through the switch control plane."""
    per_thread = SIZES["malloc-churn"][size]["ops_per_thread"]
    config = ChurnScenarioConfig(
        allocator="first-fit",
        size_dist="mixed",
        compute_blades=2,
        threads_per_blade=2,
        live_target=64,
        ops_per_thread=per_thread,
        seed=seed,
    )
    result = run_churn(config)
    threads = config.compute_blades * config.threads_per_blade
    checks: List[Tuple[str, bool]] = []
    _check(checks, "ops generated", result.total_accesses, threads * per_thread)
    _check(checks, "ops timed", len(result.stats.latencies.get("churn:op", ())),
           result.total_accesses)
    _check(checks, "mmaps refused (ENOMEM)", result.stats.counter("churn_enomem"), 0)
    return Outcome(
        result=result,
        ops=result.total_accesses,
        latency_category="churn:op",
        latency_limit_us=LATENCY_LIMIT_US["malloc-churn"],
        issued=result.total_accesses,
        checks=checks,
    )


WORKLOADS = ("tf-replay", "multirack-openloop", "kvs-serve-chaos", "malloc-churn")


def run_workload(name: str, seed: int, size: str, retired: Callable[[], int]) -> Outcome:
    if name == "tf-replay":
        return run_tf_replay(seed, size, retired)
    if name == "multirack-openloop":
        return run_multirack_openloop(seed, size)
    if name == "kvs-serve-chaos":
        return run_kvs_serve_chaos(seed, size)
    if name == "malloc-churn":
        return run_malloc_churn(seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
