"""``python -m repro profile`` on presets it cannot time.

The profiler replays trace workloads; scenario kinds (service, topology,
allocation) run through their own executors.  Asking for one must end
with exit status 2 and a one-line error, not a traceback.
"""

import pytest

from repro.__main__ import main


@pytest.mark.parametrize(
    "preset, workload, kind",
    [
        ("multirack-quick", "multirack", "topology"),
        ("kvs-service-quick", "kvs_service", "service"),
        ("malloc-bench-quick", "churn", "allocation"),
    ],
)
def test_scenario_preset_is_refused(capsys, preset, workload, kind):
    rc = main(["profile", "--preset", preset, "--reps", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert repr(workload) in lines[0] and repr(kind) in lines[0]
    # It names the presets that do work, and not the refused one.
    assert "ci-quick" in lines[0]
    assert preset not in lines[0]


def test_scenario_grid_is_refused(capsys):
    rc = main(["profile", "--grid", "workload=churn", "--reps", "1"])
    assert rc == 2
    assert "'allocation'" in capsys.readouterr().err


def test_trace_grid_still_profiles(capsys):
    rc = main([
        "profile", "--grid",
        "workload=uniform;accesses_per_thread=50;threads_per_blade=1",
        "--reps", "1",
    ])
    assert rc == 0
    assert "profiled 1 points" in capsys.readouterr().out
