"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run and passes the monotonic time at
which it spawned the process, so ``wall_s`` covers the whole run as the
spawning process saw it.  The other host times are CPU seconds of this
process (``time.process_time``: user + system, all threads), counted from
process start, so ``setup_s`` covers interpreter start-up and ``import
repro`` as well as the workload's own set-up.  The script prints one
JSON object (the run's record) as the last line of its standard output.

Usage (normally driven by ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload tf-replay --seed 1 \
        --t-spawn <CLOCK_MONOTONIC seconds> [--trace] [--slow-fault-us N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest_of(metrics: dict) -> str:
    """SHA-256 of the simulated metrics, as canonical JSON."""
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sim_record(outcome) -> dict:
    """What ``run.py`` pools into the simulated end-to-end metrics."""
    samples = list(outcome.samples())
    return {
        "runtime_us": outcome.result.runtime_us,
        "issued": outcome.issued,
        "within_limit": sum(1 for v in samples if v <= outcome.latency_limit_us),
        "samples": samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--t-spawn", type=float, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None,
                    help="file to write the traced run's spans to")
    ap.add_argument("--run-id", default="")
    ap.add_argument("--slow-fault-us", type=float, default=0.0,
                    help="busy-wait added to every CoherenceProtocol.handle_fault call")
    ap.add_argument("--warmup", action="store_true",
                    help="import everything and exit (fills the bytecode cache)")
    args = ap.parse_args(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else monotonic()

    import layers
    import scenarios
    from repro.sweep.engine import extract_metrics
    from spans import SpanRecorder, patch, slowed

    if args.warmup:
        return 0
    hooks = layers.RunHooks()
    if args.slow_fault_us > 0:
        from repro.core.coherence import CoherenceProtocol

        patch(CoherenceProtocol, "handle_fault", slowed(args.slow_fault_us * 1e-6))
    trace = None
    if args.trace:
        trace = layers.TraceHooks(SpanRecorder(args.run_id))

    outcome = scenarios.run_workload(
        args.workload, args.seed, args.size, lambda: hooks.retired
    )
    cpu_result = time.process_time()
    digest = digest_of(extract_metrics(outcome.result))
    sim = sim_record(outcome)
    counts = layers.count_metrics(outcome, hooks)
    t_end = monotonic()
    cpu_end = time.process_time()

    cpu_setup = hooks.first_kernel_entry_cpu
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "checks": [[what, ok] for what, ok in outcome.checks],
        "digest": digest,
        "ops": outcome.ops,
        "setup_s": cpu_setup,
        "ops_per_cpu_s": outcome.ops / (cpu_result - cpu_setup),
        "run_cpu_s": cpu_end,
        "wall_s": t_end - t_spawn,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "counts": counts,
        "host": layers.host_metrics(outcome, hooks),
    }
    if trace is not None:
        record["span_counts"], record["spans"] = layers.span_metrics(trace)
        if args.spans_out:
            trace.recorder.write(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
