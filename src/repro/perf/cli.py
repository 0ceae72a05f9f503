"""``python -m repro profile``: time the kernel, not the simulation.

Examples::

    # the CI speed check: best-of-3 wall clock for the quick preset
    python -m repro profile --preset ci-quick --seeds 1,2 \\
        --json-out benchmarks/BENCH_speed.json

    # where does the time go?  cProfile top-25 by internal time
    python -m repro profile --preset ci-quick --seeds 1,2 --cprofile 25

    # scenario presets (multirack, kvs-service, malloc-bench) time the same way
    python -m repro profile --preset multirack-quick --reps 1

    # advisory regression check against the checked-in baseline
    python -m repro profile --preset ci-quick --seeds 1,2 \\
        --compare-to benchmarks/BENCH_speed.json

Wall clocks are machine-specific, so ``--compare-to`` only *warns* on a
slowdown by default (exit status stays 0).  CI opts into a hard gate
with ``--fail-frac``: past that slowdown fraction the command prints an
error and exits 1.  The byte-exact simulation gate is ``python -m repro
sweep --compare-to``, which this command never touches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..sweep.cli import load_spec
from ..sweep.presets import PRESETS
from .harness import compare_wall_seconds, run_profile


def add_profile_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "profile",
        help="wall-clock profile of the simulation kernel on a sweep spec",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="AXES",
        help="grid in 'axis=v1,v2;axis2=...' syntax (repeatable)",
    )
    parser.add_argument(
        "--preset",
        action="append",
        default=[],
        metavar="NAME",
        help=f"named grid from {sorted(PRESETS)} (repeatable)",
    )
    parser.add_argument(
        "--seeds",
        default="1",
        metavar="S1,S2,...",
        help="seed list crossed with every grid (default: 1)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        metavar="N",
        help="timed repetitions; the best (min wall) is reported (default 3)",
    )
    parser.add_argument(
        "--cprofile",
        type=int,
        default=0,
        metavar="TOP",
        help="also run one pass under cProfile and print the top TOP entries",
    )
    parser.add_argument(
        "--hotspots",
        type=int,
        nargs="?",
        const=15,
        default=0,
        metavar="TOP",
        help="re-run the worst (slowest) point under cProfile and print "
        "the top TOP entries by cumulative time (default 15)",
    )
    parser.add_argument(
        "--subsystems",
        action="store_true",
        help="attribute profile time to scheduler/replay/protocol buckets "
        "(implied by --json-out and --cprofile)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the repro.profile/v1 document here",
    )
    parser.add_argument(
        "--compare-to",
        metavar="BASELINE",
        help="checked-in speed baseline; warn (never fail) on a slowdown",
    )
    parser.add_argument(
        "--warn-frac",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="slowdown fraction that triggers the warning (default 0.25)",
    )
    parser.add_argument(
        "--fail-frac",
        type=float,
        default=None,
        metavar="FRAC",
        help="slowdown fraction that fails the run (exit 1); "
        "overrides --warn-frac when given",
    )
    parser.set_defaults(fn=main)


def main(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args, "profile")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_profile(
        spec,
        reps=args.reps,
        cprofile_top=args.cprofile,
        subsystems=args.subsystems or bool(args.json_out),
        hotspots_top=args.hotspots,
    )
    doc = report.to_doc()

    walls = ", ".join(f"{w:.3f}s" for w in report.wall_seconds_per_rep)
    print(f"profiled {len(report.points)} points x {report.reps} reps: {walls}")
    print(
        f"best {report.best_wall_seconds:.3f}s | "
        f"{report.events_per_second:,.0f} engine events/s | "
        f"{report.accesses_per_second:,.0f} accesses/s"
    )
    totals = report.kernel_totals()
    print(
        "kernel: "
        + ", ".join(f"{name}={totals[name]:,}" for name in sorted(totals))
    )
    if report.subsystems is not None:
        print(
            "subsystems: "
            + ", ".join(
                f"{name}={report.subsystems[name]:.1%}"
                for name in ("scheduler", "replay", "protocol", "other")
            )
        )
    if report.cprofile_text:
        print(report.cprofile_text)
    if report.hotspot_text:
        print(f"hotspots: worst point {report.hotspot_point} "
              f"(top {args.hotspots} by cumulative time)")
        print(report.hotspot_text)

    if args.json_out:
        tmp = f"{args.json_out}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, args.json_out)
        print(f"wrote {args.json_out}")

    if args.compare_to:
        frac = args.fail_frac if args.fail_frac is not None else args.warn_frac
        try:
            with open(args.compare_to) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: cannot read {args.compare_to}: {exc}", file=sys.stderr)
            return 0
        message = compare_wall_seconds(doc, baseline, args.compare_to, warn_frac=frac)
        if message:
            if args.fail_frac is not None:
                print(f"error: {message}", file=sys.stderr)
                return 1
            print(f"warning: {message}", file=sys.stderr)
        else:
            base = float(baseline.get("best_wall_seconds", 0.0))
            print(
                f"speed vs baseline: {report.best_wall_seconds:.3f}s "
                f"vs {base:.3f}s (within budget)"
            )
    return 0
