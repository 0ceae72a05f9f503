"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import SpanRecorder, TimedGen  # noqa: E402

WORKLOADS = [w["name"] for w in run.load_spec(ROOT)["workloads"]]


def _worker(workload: str, seed: int = 1, **kwargs):
    record, error = run.run_worker(ROOT, workload, seed, size="tiny", **kwargs)
    assert record is not None, error
    return record


def _bench(tmp_root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_completes_and_passes_checks(workload):
    rec = _worker(workload)
    assert rec["checks"] and all(ok for _, ok in rec["checks"]), rec["checks"]
    assert rec["ops"] > 0 and rec["ops_per_cpu_s"] > 0
    assert 0 < rec["setup_s"] < rec["run_cpu_s"]
    assert rec["sim"]["runtime_us"] > 0 and rec["sim"]["samples"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_self_times_fit_in_wall_time(workload):
    plain = _worker(workload)
    traced = _worker(workload, trace=True)
    # Tracing must not change what is simulated.
    assert traced["digest"] == plain["digest"]
    self_times = {k: v for k, v in traced["spans"].items()
                  if k.endswith("self_s") or k == "workloads.synth_s"}
    assert all(v >= -1e-9 for v in self_times.values()), self_times
    assert sum(self_times.values()) <= traced["wall_s"]


def test_same_seed_reproduces_digest_and_counts():
    first = _worker("multirack-openloop", seed=3)
    second = _worker("multirack-openloop", seed=3)
    assert first["digest"] == second["digest"]
    assert first["counts"] == second["counts"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_changes_results(workload):
    assert _worker(workload, seed=1)["digest"] != _worker(workload, seed=2)["digest"]


def test_different_seed_changes_generated_inputs():
    from repro.workloads.churn import generate_churn_ops
    from repro.workloads.tensorflow_like import TensorFlowLikeWorkload

    assert generate_churn_ops(1, 0, 40, 64) != generate_churn_ops(2, 0, 40, 64)
    bases = [0] * 5
    one = TensorFlowLikeWorkload(4, accesses_per_thread=500, seed=1).thread_trace(0, bases)
    two = TensorFlowLikeWorkload(4, accesses_per_thread=500, seed=2).thread_trace(0, bases)
    assert list(one.stream().vas) != list(two.stream().vas)


def test_span_self_time_excludes_children():
    rec = SpanRecorder("unit")
    outer, inner = rec.name_id("outer"), rec.name_id("inner")

    def gen():
        rec.enter(inner)
        rec.exit()
        yield 1
        return 7

    rec.enter(outer)
    proxy = TimedGen(rec, inner, gen())
    assert next(proxy) == 1
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == 7
    rec.exit()
    totals = rec.totals()
    assert len(rec.ids) == 4
    calls, self_s, total_s = totals["outer"]
    assert 0 <= self_s <= total_s
    assert totals["inner"][2] <= total_s


def test_result_line_has_the_contract_keys():
    proc = _bench(ROOT, "--workload", "malloc-churn", "--seed", "2", "--seconds", "1",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > run.SCENARIO_SEEDS
    spec = run.load_spec(ROOT)
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "tf-replay", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
