"""Declarative experiment sweeps: grids of (system, config, seed) points.

Every figure in the paper's evaluation is a sweep -- systems x blade
counts x workload knobs x seeds -- and MIND's deterministic event engine
makes each point an isolated, order-independent simulation.  This package
turns that into infrastructure:

- :mod:`repro.sweep.spec` -- the grid language: axes -> cartesian product
  of :class:`SweepPoint`\\ s, each a picklable handle that a worker process
  can rebuild into a workload + runner config.
- :mod:`repro.sweep.engine` -- :func:`run_point`, the one dispatch for
  trace replays and scenario kinds; fan-out across worker processes
  (spawn-safe ``ProcessPoolExecutor``), deterministic result ordering,
  resumable partial runs, and aggregation into a schema-versioned JSON
  document (``BENCH_sweep.json``) with mean/p50/p99 per metric across
  seeds.
- :mod:`repro.sweep.compare` -- classify each metric of each grid cell as
  improved / regressed / unchanged against a baseline document (the CI
  perf-regression gate).
- :mod:`repro.sweep.presets` -- named grids for the paper's figures and
  the quick CI subset.

CLI: ``python -m repro sweep --grid ... --seeds ... --jobs N --out
BENCH_sweep.json --compare-to benchmarks/BENCH_baseline.json``.
"""

from .compare import ComparisonEntry, ComparisonReport, compare
from .engine import (
    PointRecord,
    SweepResults,
    execute_point,
    extract_metrics,
    run_point,
    run_sweep,
)
from .presets import PRESETS, preset_grids
from .spec import (
    SCHEMA,
    GridSpec,
    SweepPoint,
    SweepSpec,
    WORKLOAD_BUILDERS,
    build_workload_cached,
    parse_grid,
)

__all__ = [
    "SCHEMA",
    "ComparisonEntry",
    "ComparisonReport",
    "GridSpec",
    "PRESETS",
    "PointRecord",
    "SweepPoint",
    "SweepResults",
    "SweepSpec",
    "WORKLOAD_BUILDERS",
    "build_workload_cached",
    "compare",
    "execute_point",
    "extract_metrics",
    "parse_grid",
    "preset_grids",
    "run_point",
    "run_sweep",
]
