"""``python -m repro profile`` on every scenario kind.

Scenario points run through the same dispatch as the sweep engine, so
the profiler times them like trace replays.  A bad scenario axis must end
with exit status 2 and a one-line error, not a traceback.
"""

import re

import pytest

from repro.__main__ import main

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
