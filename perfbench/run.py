"""The repository benchmark: simulator speed and modeled results.

Run from the repository root::

    python3 perfbench/run.py --workload tf-replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --check                   # sensitivity check only

Each measured run is a fresh interpreter (``worker.py``) running one workload
once.  An invocation repeats runs for ``--seconds``, cycling through the
scenario seeds derived from ``--seed``, and reports host metrics as the
geometric mean over scenario seeds of each seed's median, and simulated
metrics pooled over the scenario seeds.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics (counts from untraced
runs, host self times from interleaved traced runs).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Host metrics measure the Python simulator.  Its times are CPU seconds of the
run's process, so time the process spent waiting for a CPU held by another
process (or by another guest of the host) is not charged to the simulator.
The end-to-end host metrics are ``setup_s`` and ``peak_rss_mb``; host
throughput (``host.ops_per_cpu_s``, ``host.run_cpu_s``) is a per-layer metric,
because the per-core speed of a shared host moves it by more than any
end-to-end bound within minutes (see README.md).  End-to-end invocations
still print it on comment lines.

``sim_*`` metrics are what the modeled MIND rack achieves; they are
deterministic per seed.  The model has no hardware
reference in this repository, so it is unvalidated and no error figure is
given.  Modeled caches start empty in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: scenario seeds one end-to-end invocation pools its simulated metrics over.
SCENARIO_SEEDS = 4
#: a traced invocation never makes fewer runs than these.
MIN_UNTRACED_RUNS = 3
MIN_TRACED_RUNS = 2
#: a single worker run that takes longer than this is killed and failed.
RUN_TIMEOUT_S = 150.0

END_TO_END_HOST = ("setup_s", "peak_rss_mb")
#: host throughput: per-layer metric name -> worker record key.
HOST_THROUGHPUT = {"host.ops_per_cpu_s": "ops_per_cpu_s", "host.run_cpu_s": "run_cpu_s"}
#: the sensitivity check's injected slowdown must lower host throughput by
#: more than this share, the largest regression bound the benchmark allows.
SENSITIVITY_DROP = 0.25

NOTE = (
    "host metrics time the Python simulator in CPU seconds of the run's process; "
    "sim_* metrics are the modeled MIND "
    "rack's results, deterministic per seed. The model has no hardware reference "
    "here: it is unvalidated and no error figure is given. Modeled caches start "
    "empty in every run."
)


#: numpy's BLAS and OpenMP pools would otherwise start one spinning thread per
#: core at import, which the process CPU time of a single-threaded run counts.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_spec(root: str) -> Dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- environment fingerprint ------------------------------------------------


def _git(root: str, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop (best
    of 5), so results from different machines can be put side by side."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * 7) & 0xFFFF
        best = min(best, time.perf_counter() - start)
    return round(0.2 / best, 3)


def fingerprint(root: str, seed: int) -> Dict:
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "calib_mloops_per_s": calibration_score(),
    }


# -- running workers -------------------------------------------------------


def run_worker(
    root: str,
    workload: str,
    seed: int,
    size: str = "full",
    trace: bool = False,
    slow_fault_us: float = 0.0,
    spans_out: Optional[str] = None,
    run_id: str = "",
) -> Tuple[Optional[Dict], str]:
    """One run in a fresh interpreter; returns ``(record or None, error)``."""
    env = dict(os.environ, **SINGLE_THREADED)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--run-id", run_id]
    if trace:
        cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
    if slow_fault_us:
        cmd += ["--slow-fault-us", str(slow_fault_us)]
    t_spawn = monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {RUN_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode])[-1]
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "worker printed no record"


def warm_up(root: str) -> bool:
    """Import everything once so the bytecode cache is filled before timing."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREADED)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "tf-replay",
         "--seed", "0", "--warmup"],
        cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode == 0


# -- one benchmark invocation ----------------------------------------------


def scenario_seeds(seed: int) -> List[int]:
    """The scenario seeds one invocation covers: ``SCENARIO_SEEDS`` distinct
    inputs derived from ``--seed``, so the simulated metrics are pooled over
    more than one draw of the workload's randomness."""
    return [seed * SCENARIO_SEEDS + j for j in range(SCENARIO_SEEDS)]


class RunSet:
    """The runs of one workload and ``--seed``, and the checks across them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.records: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, record: Optional[Dict], error: str) -> None:
        self.attempted += 1
        if record is None:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: {error}")
            return
        bad = [what for what, ok in record["checks"] if not ok]
        if bad:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: check failed: {'; '.join(bad)}")
            return
        self.records.append(record)

    def untraced(self) -> List[Dict]:
        return [r for r in self.records if not r["traced"]]

    def traced(self) -> List[Dict]:
        return [r for r in self.records if r["traced"]]

    def first_of_each_seed(self) -> Dict[int, Dict]:
        firsts: Dict[int, Dict] = {}
        for rec in self.untraced():
            firsts.setdefault(rec["seed"], rec)
        return firsts

    def reconcile(self) -> None:
        """Runs of one scenario seed must agree exactly on everything
        simulated: the digest (traced runs included), the untraced per-layer
        counts and the traced call counts.  A run that disagrees with the
        first good run of its seed counts as failed."""
        digests: Dict[int, str] = {}
        counts: Dict[Tuple[int, bool], Dict] = {}
        kept = []
        for rec in self.records:
            seed, traced = rec["seed"], rec["traced"]
            key = "span_counts" if traced else "counts"
            want_digest = digests.setdefault(seed, rec["digest"])
            if rec["digest"] != want_digest:
                self.problems.append(f"seed {seed}: digest {rec['digest']} != {want_digest}"
                                     f"{' (traced run)' if traced else ''}")
            elif rec[key] != counts.setdefault((seed, traced), rec[key]):
                self.problems.append(f"seed {seed}: {key} differ between runs")
            else:
                kept.append(rec)
                continue
            self.failed += 1
        self.records = kept


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", spans_dir: Optional[str] = None) -> RunSet:
    """Repeat runs of ``workload`` until ``seconds`` have passed and the
    minimum run counts are met.

    Without ``trace``, untraced runs cycle through :func:`scenario_seeds`;
    the minimum covers every scenario seed and repeats the first, so the
    digest check always compares two runs.  With ``trace``, untraced and
    traced runs of the first scenario seed alternate, and the first traced
    run writes its spans to ``spans_dir``.  Once the minimums are met, a run
    is started only if a run as long as the longest so far still ends within
    ``seconds``, so an invocation does not overrun its time.
    """
    runs = RunSet(workload, seed)
    seeds = scenario_seeds(seed)
    min_plain = MIN_UNTRACED_RUNS if trace else len(seeds) + 1
    min_traced = MIN_TRACED_RUNS if trace else 0
    start = monotonic()
    longest = 0.0
    turn = 0
    while True:
        n_plain, n_traced = len(runs.untraced()), len(runs.traced())
        if (monotonic() - start + longest >= seconds and n_plain >= min_plain
                and n_traced >= min_traced):
            break
        if runs.failed >= 2 * (min_plain + min_traced):
            break  # the program is failing; stop retrying
        traced_turn = trace and turn % 2 == 1
        run_seed = seeds[0] if trace else seeds[turn % len(seeds)]
        spans_out = None
        if traced_turn and spans_dir and n_traced == 0:
            spans_out = os.path.join(spans_dir, f"spans-{workload}-seed{run_seed}.csv.gz")
        t_run = monotonic()
        record, error = run_worker(
            root, workload, run_seed, size, trace=traced_turn, spans_out=spans_out,
            run_id=f"{workload}/seed{run_seed}/run{runs.attempted + 1}",
        )
        longest = max(longest, monotonic() - t_run)
        runs.add(record, error)
        turn += 1
    runs.reconcile()
    return runs


def _median(records: List[Dict], key: str, section: Optional[str] = None) -> float:
    values = [(r[section] if section else r)[key] for r in records]
    return statistics.median(values)


def seed_balanced(records: List[Dict], key: str, section: Optional[str] = None) -> float:
    """Geometric mean over scenario seeds of each seed's median, so that how
    many runs each seed got in the time does not move the result."""
    by_seed: Dict[int, List[Dict]] = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], []).append(rec)
    return statistics.geometric_mean(_median(group, key, section)
                                     for group in by_seed.values())


def pooled_sim(records: List[Dict]) -> Dict[str, float]:
    """Simulated metrics pooled over one run of each scenario seed."""
    import numpy as np

    samples = np.concatenate([np.asarray(r["sim"]["samples"], dtype=np.float64)
                              for r in records])
    p50, p99 = np.percentile(samples, (50, 99))
    return {
        "sim_ops_per_ms": sum(r["ops"] for r in records)
        / sum(r["sim"]["runtime_us"] for r in records) * 1e3,
        "sim_lat_p50_us": float(p50),
        "sim_lat_p99_us": float(p99),
        "sim_slo_ok_frac": sum(r["sim"]["within_limit"] for r in records)
        / sum(r["sim"]["issued"] for r in records),
        "samples": int(len(samples)),
        "samples_above_p99": int((samples > p99).sum()),
    }


def end_to_end_metrics(runs: RunSet) -> Dict[str, float]:
    out = {name: seed_balanced(runs.untraced(), name) for name in END_TO_END_HOST}
    out.update(pooled_sim(list(runs.first_of_each_seed().values())))
    return out


def per_layer_metrics(runs: RunSet) -> Dict[str, float]:
    plain, traced = runs.untraced(), runs.traced()
    out = dict(plain[0]["counts"])
    out.update(traced[0]["span_counts"])
    for name in plain[0]["host"]:
        out[name] = _median(plain, name, "host")
    for name, key in HOST_THROUGHPUT.items():
        out[name] = _median(plain, key)
    for name in traced[0]["spans"]:
        out[name] = _median(traced, name, "spans")
    out["trace.overhead_frac"] = (_median(traced, "run_cpu_s") / _median(plain, "run_cpu_s")
                                  - 1.0)
    return out


def describe(runs: RunSet, trace: bool) -> List[str]:
    lines = []
    for seed, rec in runs.first_of_each_seed().items():
        lines.append(f"# digest {runs.workload} seed={seed}: {rec['digest']}")
    lines.append(
        f"# {runs.workload}: {runs.attempted} runs attempted "
        f"({len(runs.untraced())} untraced, {len(runs.traced())} traced ok), "
        f"{runs.failed} failed"
    )
    if runs.untraced() and not trace:
        sim = pooled_sim(list(runs.first_of_each_seed().values()))
        lines.append(
            f"# {runs.workload}: pooled over seeds {sorted(runs.first_of_each_seed())}: "
            f"{sim['samples']} latency samples, {sim['samples_above_p99']} above p99"
        )
        host = "  ".join(f"{name} {seed_balanced(runs.untraced(), key):.6g}"
                         for name, key in HOST_THROUGHPUT.items())
        lines.append(f"# {runs.workload}: host throughput (per-layer, no bound): {host}")
    for key in ("setup_s", "ops_per_cpu_s", "run_cpu_s", "wall_s"):
        values = " ".join(f"{r[key]:.4g}" for r in runs.untraced())
        lines.append(f"# {runs.workload}: untraced {key} per run: {values}")
    lines.extend(f"# problem: {p}" for p in runs.problems)
    return lines


def metric_units(spec: Dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_json(runs_list: List[RunSet], trace: bool, units: Dict[str, str],
                prefix: bool) -> Dict:
    """The result line; metrics in the order (and with the units) that
    ``units`` lists them."""
    metrics: Dict[str, Dict] = {}
    for runs in runs_list:
        if not runs.untraced() or (trace and not runs.traced()):
            continue
        values = per_layer_metrics(runs) if trace else end_to_end_metrics(runs)
        for name, unit in units.items():
            if name in values:
                key = f"{runs.workload}/{name}" if prefix else name
                metrics[key] = {"value": values[name], "unit": unit}
    attempted = sum(r.attempted for r in runs_list)
    failed = sum(r.failed for r in runs_list)
    complete = all(r.untraced() and (not trace or r.traced()) for r in runs_list)
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- sensitivity check -----------------------------------------------------


def sensitivity_check(root: str, seed: int, pairs: int = 3,
                      slow_us: float = 400.0) -> bool:
    """Inject a fixed busy-wait into every ``CoherenceProtocol.handle_fault``
    call and confirm the benchmark sees it where it should: host throughput
    (``ops_per_cpu_s``) falls by more than :data:`SENSITIVITY_DROP` on
    multirack-openloop, stays within it on malloc-churn (which never faults),
    and the traced run charges the added time to ``core.handle_fault.self_s``."""
    bound = SENSITIVITY_DROP
    verdicts = []

    def paired(workload: str, trace: bool = False):
        base, slow = [], []
        for i in range(pairs):
            order = [(False, base), (True, slow)]
            for is_slow, into in order if i % 2 == 0 else order[::-1]:
                rec, err = run_worker(root, workload, seed, trace=trace,
                                      slow_fault_us=slow_us if is_slow else 0.0)
                if rec is None:
                    raise RuntimeError(f"{workload}: {err}")
                into.append(rec)
        return base, slow

    for workload, expect_drop in (("multirack-openloop", True), ("malloc-churn", False)):
        base, slow = paired(workload)
        b = statistics.median(r["ops_per_cpu_s"] for r in base)
        s = statistics.median(r["ops_per_cpu_s"] for r in slow)
        change = s / b - 1.0
        ok = change < -bound if expect_drop else change >= -bound
        want = f"falls by more than {bound:.0%}" if expect_drop else f"within {bound:.0%}"
        print(f"# check {workload}: ops_per_cpu_s {b:.1f} -> {s:.1f} ({change:+.1%}); "
              f"expected {want}: {'ok' if ok else 'FAILED'}")
        verdicts.append(ok)

    base, slow = paired("multirack-openloop", trace=True)
    faults = base[0]["span_counts"]["core.faults"]
    added = slow_us * 1e-6 * faults
    layers = [k for k in base[0]["spans"] if k.endswith(".self_s") or k == "workloads.synth_s"]
    growth = {
        k: statistics.median(r["spans"][k] for r in slow)
        - statistics.median(r["spans"][k] for r in base)
        for k in layers
    }
    top = max(growth, key=growth.get)
    got = growth["core.handle_fault.self_s"]
    ok = top == "core.handle_fault.self_s" and 0.8 * added <= got <= 1.5 * added
    print(f"# check traced multirack-openloop: {faults} faults x {slow_us:g} us = "
          f"{added:.3f} s injected; core.handle_fault.self_s grew {got:.3f} s; "
          f"largest growth in {top}: {'ok' if ok else 'FAILED'}")
    verdicts.append(ok)
    return all(verdicts)


# -- command line ----------------------------------------------------------


def main(argv=None) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root (src/repro not found)\n")
        return 2
    spec = load_spec(root)
    names = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: the benchmark's own tests")
    ap.add_argument("--check", action="store_true",
                    help="run the injected-slowdown sensitivity check instead")
    args = ap.parse_args(argv)

    if not warm_up(root):
        sys.stderr.write("perfbench: cannot import the simulator\n")
        return 2
    print(f"# env {json.dumps(fingerprint(root, args.seed), sort_keys=True)}")
    print(f"# note: {NOTE}")

    if args.check:
        ok = sensitivity_check(root, args.seed)
        print(json.dumps({"check": "sensitivity", "passed": ok}))
        return 0 if ok else 1

    workloads = names if args.workload == "all" else (args.workload,)
    spans_dir = os.path.join(root, ".perfbench")
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
    runs_list = []
    for workload in workloads:
        runs = measure(root, workload, args.seed, args.seconds, bool(args.trace),
                       args.size, spans_dir)
        runs_list.append(runs)
        for line in describe(runs, bool(args.trace)):
            print(line)
    units = metric_units(spec)
    result = result_json(runs_list, bool(args.trace), units, prefix=len(workloads) > 1)
    for name, m in result["metrics"].items():
        print(f"# {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
