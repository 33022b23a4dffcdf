"""tools/verify_calls.py counts the calls of run_verify in a fresh process."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "verify_calls.py"


def test_later_runs_make_no_expm_call_and_the_laws_run_each_time():
    out = subprocess.run([sys.executable, str(TOOL), "2"], check=True,
                         capture_output=True, text=True).stdout
    rows = {line.split()[0]: line.split()[1:]
            for line in out.splitlines()[2:]}
    assert list(rows) == ["total", "multiply", "adjoint", "coadjoint",
                          "cocycle", "casimirs", "time_flow_exact", "expm"]
    first, later = (int(rows["expm"][0]), float(rows["expm"][1]))
    # the probes' factors of four chart models (the five coadjoint series
    # call it through exp_coadjoint), then the memo
    assert (first, later) == (9, 0.0)
    assert int(rows["total"][0]) > float(rows["total"][1])
    for law in ("multiply", "adjoint", "coadjoint", "cocycle", "casimirs",
                "time_flow_exact"):
        assert int(rows[law][0]) == float(rows[law][1]) > 0, law


def test_fewer_than_two_seeds_is_an_error():
    run = subprocess.run([sys.executable, str(TOOL), "1"],
                         capture_output=True, text=True)
    assert run.returncode != 0 and "at least 2 seeds" in run.stderr
