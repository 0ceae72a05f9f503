"""``python -m repro profile`` on every scenario kind.

Scenario points run through the same dispatch as the sweep engine, so
the profiler times them like trace replays.  A bad scenario axis must end
with exit status 2 and a one-line error, not a traceback.  The speed gate's
messages name the baseline file they compared against.
"""

import json
import re

import pytest

from repro.__main__ import main
from repro.perf import compare_wall_seconds

SCENARIO_GRIDS = {
    "topology": "workload=multirack;racks=2;blades=2;accesses_per_thread=40",
    "service": (
        "workload=kvs_service;blades=2;threads_per_blade=2;tenants=2;"
        "clients_per_tenant=2;requests_per_client=12;max_slots=4;chaos=none"
    ),
    "allocation": "workload=churn;blades=1;ops_per_thread=60;live_target=16",
}


@pytest.mark.parametrize("kind", sorted(SCENARIO_GRIDS))
def test_scenario_grid_profiles(capsys, kind):
    rc = main(["profile", "--grid", SCENARIO_GRIDS[kind], "--reps", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profiled 1 points" in out
    events = re.search(r"events_executed=([\d,]+)", out)
    assert events is not None
    assert int(events.group(1).replace(",", "")) > 0


def test_bad_scenario_axis_is_a_one_line_error(capsys):
    rc = main(["profile", "--grid", "workload=churn;palette=3", "--reps", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "palette" in lines[0]


def test_trace_grid_still_profiles(capsys):
    rc = main([
        "profile", "--grid",
        "workload=uniform;accesses_per_thread=50;threads_per_blade=1",
        "--reps", "1",
    ])
    assert rc == 0
    assert "profiled 1 points" in capsys.readouterr().out


def test_speed_gate_messages_name_their_baseline():
    path = "benchmarks/BENCH_speed_alloc.json"
    current = {"spec_digest": "abc", "best_wall_seconds": 2.0}
    slow = compare_wall_seconds(
        current, {"spec_digest": "abc", "best_wall_seconds": 1.0}, path, warn_frac=0.2
    )
    stale = compare_wall_seconds(
        current, {"spec_digest": "xyz", "best_wall_seconds": 1.0}, path
    )
    for message in (slow, stale):
        assert path in message
        assert "ci-quick" not in message and "BENCH_speed.json" not in message
    assert f"--json-out {path}" in stale
    assert compare_wall_seconds(
        current, {"spec_digest": "abc", "best_wall_seconds": 1.9}, path, warn_frac=0.2
    ) is None


def test_speed_gate_fails_naming_the_baseline(tmp_path, capsys):
    grid = SCENARIO_GRIDS["allocation"]
    baseline = tmp_path / "BENCH_speed_tiny.json"
    assert main(["profile", "--grid", grid, "--reps", "1",
                 "--json-out", str(baseline)]) == 0
    doc = json.loads(baseline.read_text())
    doc["best_wall_seconds"] = 1e-9
    baseline.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["profile", "--grid", grid, "--reps", "1",
               "--compare-to", str(baseline), "--fail-frac", "0.20"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: speed regression") and str(baseline) in err
