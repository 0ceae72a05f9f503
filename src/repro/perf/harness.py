"""Point-by-point wall-clock profiling of sweep specs.

The harness re-runs each sweep point in this process through
:func:`repro.sweep.engine.run_point` -- trace replays and scenario kinds
alike -- wrapped in ``perf_counter`` timing,
and pulls :meth:`repro.sim.engine.Engine.kernel_stats` off every
:class:`~repro.sim.stats.RunResult`.  Repetitions time the *whole spec*
and the best (minimum-wall) repetition is reported, which filters most
scheduler noise without needing long runs.

Determinism guard: simulated metrics are extracted from every repetition
and must be identical across repetitions -- a cheap tripwire that the
kernel fast paths being measured did not change simulation results.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..faults import FaultPlan
from ..sweep.engine import extract_metrics, run_point
from ..sweep.spec import SCENARIOS, SweepSpec, build_workload_cached

#: schema tag for profile documents (BENCH_speed.json is one of these).
SCHEMA = "repro.profile/v1"

#: module-path buckets for per-subsystem time attribution.  Ordered:
#: the first matching bucket wins, so blades/compute (replay) is claimed
#: before the catch-all protocol paths could see it.
SUBSYSTEM_PATHS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("scheduler", ("repro/sim/engine.py",)),
    ("replay", ("repro/workloads/", "repro/blades/")),
    (
        "protocol",
        ("repro/core/", "repro/switchsim/", "repro/sim/network.py"),
    ),
)


def subsystem_attribution(stats: pstats.Stats) -> Dict[str, float]:
    """Fractions of cProfile internal time per kernel subsystem.

    ``tottime`` (time inside a frame, excluding callees) sums cleanly
    across the whole profile, so bucketing it by module path answers
    "where does the wall clock actually go" without double counting:
    scheduler (the event loop itself), replay (workload drive + blade
    cache), protocol (coherence, switch, links) and other (numpy, stdlib,
    everything else).
    """
    buckets = {name: 0.0 for name, _ in SUBSYSTEM_PATHS}
    buckets["other"] = 0.0
    total = 0.0
    for (filename, _lineno, _func), entry in stats.stats.items():  # type: ignore[attr-defined]
        tottime = entry[2]
        total += tottime
        path = filename.replace(os.sep, "/")
        for name, needles in SUBSYSTEM_PATHS:
            if any(needle in path for needle in needles):
                buckets[name] += tottime
                break
        else:
            buckets["other"] += tottime
    if total <= 0.0:
        return {name: 0.0 for name in buckets}
    return {name: spent / total for name, spent in buckets.items()}


@dataclass
class PointProfile:
    """One sweep point's wall time and kernel counters (best repetition)."""

    point_id: str
    cell_id: str
    wall_seconds: float
    total_accesses: int
    kernel_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def events_executed(self) -> int:
        return int(self.kernel_stats.get("events_executed", 0))

    def to_json(self) -> Dict[str, Any]:
        return {
            "point_id": self.point_id,
            "cell_id": self.cell_id,
            "wall_seconds": self.wall_seconds,
            "total_accesses": self.total_accesses,
            "kernel_stats": {k: self.kernel_stats[k] for k in sorted(self.kernel_stats)},
        }


@dataclass
class ProfileReport:
    """A full profiling run: spec identity, wall times, derived rates."""

    spec: SweepSpec
    reps: int
    wall_seconds_per_rep: List[float]
    points: List[PointProfile]
    cprofile_text: Optional[str] = None
    #: tottime fraction per subsystem (scheduler/replay/protocol/other)
    #: from an untimed cProfile pass; None when attribution was not run.
    subsystems: Optional[Dict[str, float]] = None
    #: cProfile top-N cumulative table for the worst (slowest) point.
    hotspot_text: Optional[str] = None
    hotspot_point: Optional[str] = None

    @property
    def best_wall_seconds(self) -> float:
        return min(self.wall_seconds_per_rep)

    @property
    def events_executed(self) -> int:
        return sum(p.events_executed for p in self.points)

    @property
    def total_accesses(self) -> int:
        return sum(p.total_accesses for p in self.points)

    @property
    def events_per_second(self) -> float:
        best = self.best_wall_seconds
        return self.events_executed / best if best > 0 else 0.0

    @property
    def accesses_per_second(self) -> float:
        best = self.best_wall_seconds
        return self.total_accesses / best if best > 0 else 0.0

    def kernel_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for point in self.points:
            for name, value in point.kernel_stats.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "schema": SCHEMA,
            "spec_digest": self.spec.digest(),
            "num_points": len(self.points),
            "reps": self.reps,
            "wall_seconds_per_rep": self.wall_seconds_per_rep,
            "best_wall_seconds": self.best_wall_seconds,
            "events_executed": self.events_executed,
            "events_per_second": self.events_per_second,
            "total_accesses": self.total_accesses,
            "accesses_per_second": self.accesses_per_second,
            "kernel_totals": self.kernel_totals(),
            "points": [p.to_json() for p in self.points],
        }
        if self.subsystems is not None:
            doc["subsystems"] = {
                name: self.subsystems[name] for name in sorted(self.subsystems)
            }
        return doc


def run_profile(
    spec: SweepSpec,
    reps: int = 3,
    fault_plan: Optional[FaultPlan] = None,
    cprofile_top: int = 0,
    subsystems: bool = False,
    hotspots_top: int = 0,
) -> ProfileReport:
    """Profile every point of ``spec``; report the best of ``reps`` passes.

    Raises :class:`RuntimeError` if any simulated metric differs between
    repetitions (the kernel fast paths must not change simulation
    results, and repeated runs of a point are pure functions of it).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    points = spec.points()
    # Warm the per-process workload cache outside the timed region so the
    # first repetition is not charged for trace synthesis.  Scenario
    # points generate their streams inside the run and have nothing to warm.
    for point in points:
        if point.workload not in SCENARIOS:
            build_workload_cached(point)

    wall_per_rep: List[float] = []
    best_points: List[PointProfile] = []
    reference_metrics: Optional[List[Dict[str, float]]] = None
    for _ in range(reps):
        rep_points: List[PointProfile] = []
        rep_metrics: List[Dict[str, float]] = []
        rep_wall = 0.0
        for point in points:
            t0 = perf_counter()
            result = run_point(point, fault_plan)
            wall = perf_counter() - t0
            rep_wall += wall
            rep_metrics.append(extract_metrics(result))
            rep_points.append(
                PointProfile(
                    point_id=point.point_id,
                    cell_id=point.cell_id,
                    wall_seconds=wall,
                    total_accesses=result.total_accesses,
                    kernel_stats=dict(result.kernel_stats),
                )
            )
        if reference_metrics is None:
            reference_metrics = rep_metrics
        elif rep_metrics != reference_metrics:
            raise RuntimeError(
                "simulated metrics changed between profiling repetitions; "
                "the kernel is non-deterministic"
            )
        if not wall_per_rep or rep_wall < min(wall_per_rep):
            best_points = rep_points
        wall_per_rep.append(rep_wall)

    cprofile_text = None
    subsystem_fracs = None
    if cprofile_top > 0 or subsystems:
        # One untimed instrumented pass serves both the text table and
        # the per-subsystem attribution (instrumentation overhead skews
        # absolute times, not the relative split).
        profiler = cProfile.Profile()
        profiler.enable()
        for point in points:
            run_point(point, fault_plan)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        if cprofile_top > 0:
            stats.sort_stats("tottime").print_stats(cprofile_top)
            cprofile_text = buf.getvalue()
        subsystem_fracs = subsystem_attribution(stats)

    hotspot_text = None
    hotspot_point = None
    if hotspots_top > 0:
        worst = max(best_points, key=lambda p: p.wall_seconds)
        worst_point = next(
            p for p in points if p.point_id == worst.point_id
        )
        profiler = cProfile.Profile()
        profiler.enable()
        run_point(worst_point, fault_plan)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(hotspots_top)
        hotspot_text = buf.getvalue()
        hotspot_point = worst_point.label()

    return ProfileReport(
        spec=spec,
        reps=reps,
        wall_seconds_per_rep=wall_per_rep,
        points=best_points,
        cprofile_text=cprofile_text,
        subsystems=subsystem_fracs,
        hotspot_text=hotspot_text,
        hotspot_point=hotspot_point,
    )


def compare_wall_seconds(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    baseline_path: str,
    warn_frac: float = 0.25,
) -> Optional[str]:
    """Warning text if ``current`` is more than ``warn_frac`` slower.

    Wall clocks differ across machines, so this is advisory (CI prints
    the warning but does not fail); ``None`` means within budget.  Specs
    must match -- comparing different workloads is meaningless.  The text
    names ``baseline_path``, the file ``baseline`` was read from.
    """
    if current.get("spec_digest") != baseline.get("spec_digest"):
        return (
            f"speed baseline {baseline_path} covers a different spec "
            f"({baseline.get('spec_digest')!r} != {current.get('spec_digest')!r}); "
            "regenerate it by re-running the profile command that made it "
            f"with --json-out {baseline_path}"
        )
    base = float(baseline.get("best_wall_seconds", 0.0))
    cur = float(current.get("best_wall_seconds", 0.0))
    if base <= 0.0:
        return None
    if cur > base * (1.0 + warn_frac):
        return (
            f"speed regression: wall clock {cur:.3f}s is "
            f"{cur / base:.2f}x the {base:.3f}s in {baseline_path} "
            f"(warn threshold {1.0 + warn_frac:.2f}x)"
        )
    return None
