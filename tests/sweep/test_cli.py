"""``python -m repro sweep``: invalid grids fail before any point runs."""

import pytest

from repro.__main__ import main


@pytest.mark.parametrize(
    "grid, needle",
    [
        ("workload=churn;palette=3", "palette"),
        ("workload=multirack;rakcs=2", "rakcs"),
        ("system=gam;workload=churn", "only runs on"),
    ],
)
def test_bad_scenario_grid_is_a_one_line_error(tmp_path, capsys, grid, needle):
    out_path = tmp_path / "sweep.json"
    rc = main(["sweep", "--grid", grid, "--out", str(out_path), "--quiet"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and needle in lines[0]
    assert not out_path.exists()
