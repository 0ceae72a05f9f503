"""Per-layer metrics: where they are measured and how they are computed.

Two sources feed the per-layer metrics:

- **Counts** from the untraced run's public counters: ``RunResult.stats``,
  ``Engine.kernel_stats()`` and ``Network.total_bytes()``.  They are
  deterministic per seed and must repeat exactly from run to run.
- **Spans** from the traced run: call counts and ``*.self_s`` host times of
  the functions in :data:`TRACE_POINTS`, grouped by layer.

:class:`RunHooks` is installed in every run (traced or not).  It only wraps
calls that happen a handful of times per run (kernel entry, object
construction) plus ``ComputeBlade.run_thread``, whose return value is the
per-thread access count the tf-replay output check needs.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder, patch, traced


def _clock() -> float:
    """System-wide monotonic clock, comparable with the spawning process's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, class or None for a module function, attribute, span name)
TRACE_POINTS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.sim.engine", "Engine", "run", "engine.run"),
    ("repro.sim.engine", "Engine", "run_until_complete", "engine.run"),
    ("repro.sim.network", "Link", "transfer", "network.transfer"),
    ("repro.sim.network", "Link", "try_leg", "network.try_leg"),
    ("repro.sim.network", "Link", "try_start", "network.try_start"),
    ("repro.blades.compute", "ComputeBlade", "run_thread", "blades.run_thread"),
    ("repro.blades.compute", "ComputeBlade", "ensure_page", "blades.ensure_page"),
    ("repro.blades.compute", "ComputeBlade", "handle_invalidation", "blades.invalidation"),
    ("repro.workloads.trace", "TraceWorkload", "all_traces", "workloads.synth"),
    ("repro.alloc.scenario", None, "generate_churn_ops", "workloads.synth"),
    ("repro.core.coherence", "CoherenceProtocol", "handle_fault", "core.handle_fault"),
    ("repro.core.fetch", "DataPath", "fetch", "core.fetch"),
    ("repro.core.fetch", "DataPath", "fetch_from_owner", "core.fetch"),
    ("repro.core.fetch", "DataPath", "flush_page", "core.fetch"),
    ("repro.core.invalidation", "InvalidationEngine", "invalidate_all", "core.inval"),
    ("repro.core.txn", "PendingTransactionTable", "admit", "core.txn"),
    ("repro.core.txn", "PendingTransactionTable", "complete", "core.txn"),
    ("repro.switchsim.tcam", "Tcam", "coalesce", "switchsim.tcam_coalesce"),
    ("repro.core.controller", "SwitchController", "sys_mmap", "control.syscall"),
    ("repro.core.controller", "SwitchController", "sys_munmap", "control.syscall"),
    ("repro.core.protection", "ProtectionTable", "grant", "control.protection"),
    ("repro.core.protection", "ProtectionTable", "revoke", "control.protection"),
    ("repro.core.protection", "ProtectionTable", "change", "control.protection"),
    ("repro.alloc.policy", "AllocatorPolicy", "allocate", "alloc.policy"),
    ("repro.alloc.policy", "AllocatorPolicy", "free", "alloc.policy"),
    ("repro.multirack.fabric", "RackRouter", "handle_fault", "multirack.route"),
    ("repro.service.admission", "ServiceAdmission", "try_admit", "service.admit"),
    ("repro.service.admission", "ServiceAdmission", "note_done", "service.admission"),
    ("repro.service.admission", "ServiceAdmission", "note_retry", "service.admission"),
    ("repro.service.pool", "ServingPool", "submit", "service.pool"),
    ("repro.service.pool", "ServingPool", "_worker", "service.pool"),
    ("repro.service.autoscaler", "Autoscaler", "run", "service.autoscaler"),
    ("repro.telemetry.windows", "MetricsTimeline", "record_latency", "telemetry.record"),
    ("repro.telemetry.windows", "MetricsTimeline", "incr", "telemetry.record"),
    ("repro.telemetry.windows", "MetricsTimeline", "gauge", "telemetry.record"),
]

#: span names summed into each layer's ``self_s`` metric.
SELF_TIME_GROUPS: Dict[str, Tuple[str, ...]] = {
    "engine.self_s": ("engine.run",),
    "network.self_s": ("network.transfer", "network.try_leg", "network.try_start"),
    "blades.self_s": ("blades.run_thread", "blades.ensure_page", "blades.invalidation"),
    "workloads.synth_s": ("workloads.synth",),
    "core.handle_fault.self_s": ("core.handle_fault",),
    "core.fetch.self_s": ("core.fetch",),
    "core.inval.self_s": ("core.inval",),
    "core.txn.self_s": ("core.txn",),
    "switchsim.tcam_coalesce.self_s": ("switchsim.tcam_coalesce",),
    "control.syscall.self_s": ("control.syscall",),
    "control.protection.self_s": ("control.protection",),
    "alloc.policy.self_s": ("alloc.policy",),
    "multirack.route.self_s": ("multirack.route",),
    "service.self_s": ("service.admit", "service.admission", "service.pool",
                       "service.autoscaler"),
    "telemetry.self_s": ("telemetry.record",),
}


def _resolve(module: str, owner: Optional[str]):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


class RunHooks:
    """Cheap instrumentation present in every run.

    Records when the simulation kernel is first entered (the end of set-up),
    as process CPU time, the host time spent inside kernel run calls, every ``Network`` and
    ``ComputeBlade`` built, and the accesses each replay thread retired.
    """

    def __init__(self) -> None:
        self.first_kernel_entry_cpu: Optional[float] = None
        self.kernel_s = 0.0
        self._depth = 0
        self.networks: List[object] = []
        self.blades: List[object] = []
        self.retired = 0
        from repro.blades.compute import ComputeBlade
        from repro.sim.engine import Engine
        from repro.sim.network import Network

        for attr in ("run", "run_until_complete"):
            patch(Engine, attr, self._kernel_entry)
        patch(Network, "__init__", self._registry(self.networks))
        patch(ComputeBlade, "__init__", self._registry(self.blades))
        patch(ComputeBlade, "run_thread", self._count_retired)

    def _kernel_entry(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = _clock()
            if self.first_kernel_entry_cpu is None:
                self.first_kernel_entry_cpu = time.process_time()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.kernel_s += _clock() - start

        return wrapper

    @staticmethod
    def _registry(into: List[object]) -> Callable:
        def make(init: Callable) -> Callable:
            def wrapper(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                into.append(obj)

            return wrapper

        return make

    def _count_retired(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            count = yield from fn(*args, **kwargs)
            self.retired += count
            return count

        return wrapper


class TraceHooks:
    """The traced run's span wrappers (installed on top of :class:`RunHooks`)."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.fast_legs = 0
        self.tcam_entries_max = 0
        on_return = {
            "network.try_leg": self._note_fast_leg,
            "network.try_start": self._note_fast_leg,
            "switchsim.tcam_coalesce": self._note_tcam,
        }
        for module, owner, attr, name in TRACE_POINTS:
            patch(_resolve(module, owner), attr, traced(recorder, name, on_return.get(name)))

    def _note_fast_leg(self, _args: tuple, value: object) -> None:
        if value != -1.0:
            self.fast_legs += 1

    def _note_tcam(self, args: tuple, _value: object) -> None:
        self.tcam_entries_max = max(self.tcam_entries_max, len(args[0]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_prefixed(counters: Dict[str, int], prefix: str, suffix: str) -> int:
    return sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix))


def count_metrics(outcome, hooks: RunHooks) -> Dict[str, float]:
    """Deterministic per-layer counts of one (untraced) run."""
    result = outcome.result
    stats = result.stats
    c = stats.counters
    k = result.kernel_stats
    ops = outcome.ops

    def counter(name: str) -> int:
        return c.get(name, 0)

    def p50(category: str) -> float:
        samples = stats.latencies.get(category)
        return stats.latency_summary(category).p50 if samples else 0.0

    lookups = sum(b.cache.hits + b.cache.misses + b.cache.upgrades for b in hooks.blades)
    cross = counter("cross_rack_faults")
    svc_completions = _sum_prefixed(c, "svc:t", ":completions")
    svc_shed = _sum_prefixed(c, "svc:t", ":shed")
    return {
        "engine.events": k.get("events_executed", 0),
        "engine.events_per_op": _ratio(k.get("events_executed", 0), ops),
        "engine.processes_started": k.get("processes_started", 0),
        "engine.subtasks_fused": k.get("subtasks_fused", 0),
        "engine.inline_continuations": k.get("inline_continuations", 0),
        "engine.batched_retires": k.get("batched_retires", 0),
        "engine.calendar_rotations": k.get("calendar_rotations", 0),
        "network.bytes": sum(n.total_bytes() for n in hooks.networks),
        "network.packets_dropped": sum(n.total_packets_dropped() for n in hooks.networks),
        "blades.hit_frac": (1.0 - counter("remote_accesses") / lookups) if lookups else 0.0,
        "blades.evictions": counter("evictions"),
        "blades.inval_handled": counter("invalidations_received"),
        "blades.false_inval_frac": _ratio(
            counter("false_invalidations"), counter("invalidations_received")
        ),
        "workloads.openloop_queue_p50_us": p50("openloop:queue"),
        "core.txn_admitted": counter("txn_admitted"),
        "core.txn_conflict_waits": counter("txn_conflict_waits"),
        "core.coalesced_fetches": counter("coalesced_fetches"),
        "core.pending_table_peak": counter("pending_table_peak"),
        "core.invalidations_sent": counter("invalidations_sent"),
        "core.splits": counter("splits"),
        "core.faults_reissued": counter("faults_reissued"),
        "switchsim.pipeline_passes": counter("pipeline_passes"),
        "switchsim.recirculations": counter("recirculations"),
        "alloc.ops": counter("alloc_ops"),
        "alloc.frag_external": stats.gauges.get("alloc:frag:external", 0.0),
        "alloc.metadata_bytes": stats.gauges.get("alloc:metadata_bytes", 0.0),
        "alloc.oom": counter("churn_enomem"),
        "multirack.spine_forwards": counter("spine_forwards"),
        "multirack.cross_frac": _ratio(cross, cross + counter("intra_rack_faults")),
        "multirack.spine_util": stats.gauges.get("tier:spine:utilization_max", 0.0),
        "service.shed_frac": _ratio(svc_shed, svc_completions + svc_shed),
        "service.retries": _sum_prefixed(c, "svc:t", ":retries"),
        "service.failed": _sum_prefixed(c, "svc:t", ":failed"),
        "service.scale_events": counter("svc:scale_ups") + counter("svc:scale_downs"),
        "service.queue_p50_us": p50("svc:queue"),
        "telemetry.windows": stats.timeline.num_windows if stats.timeline is not None else 0,
        "faults.failovers": counter("failovers_completed"),
        "faults.outage_us": stats.gauges.get("unavailability_us", 0.0),
        "faults.stale_txns": counter("stale_transactions"),
    }


def host_metrics(outcome, hooks: RunHooks) -> Dict[str, float]:
    """Per-layer host timings of an untraced run."""
    events = outcome.result.kernel_stats.get("events_executed", 0)
    return {"engine.host_ns_per_event": _ratio(hooks.kernel_s * 1e9, events)}


def span_metrics(trace: TraceHooks) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(call counts, host times)`` of one traced run.  The call counts are
    deterministic per seed like the untraced counts; the times are not."""
    totals = trace.recorder.totals()

    def calls(*names: str) -> int:
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    fast_attempts = calls("network.try_leg", "network.try_start")
    syscalls = calls("control.syscall")
    faults = calls("core.handle_fault")
    counts = {
        "network.legs": calls("network.transfer", "network.try_leg", "network.try_start"),
        "network.fast_leg_frac": _ratio(trace.fast_legs, fast_attempts),
        "core.faults": faults,
        "switchsim.tcam_coalesce_calls": calls("switchsim.tcam_coalesce"),
        "switchsim.tcam_entries_max": trace.tcam_entries_max,
        "control.syscalls": syscalls,
        "service.admit_calls": calls("service.admit"),
        "telemetry.records": calls("telemetry.record"),
    }
    times: Dict[str, float] = {
        metric: sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)
        for metric, names in SELF_TIME_GROUPS.items()
    }
    times["core.host_us_per_fault"] = _ratio(total_s("core.handle_fault") * 1e6, faults)
    times["control.host_ms_per_syscall"] = _ratio(total_s("control.syscall") * 1e3, syscalls)
    return counts, times
