import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams, Trajectory, cli
from helpers import cyclotron_exact


def run(argv):
    return cli.main(argv)


# ------------------------------------------------------------------ verify

def test_verify_single_model_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--model", "central1", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "RESULT: PASS" in text
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["seed"] == 3
    names = [c["name"] for c in doc["checks"]]
    assert "central1: jacobi identity" in names
    assert "central1: casimir invariance" in names


def test_verify_all_models_report_has_convention_notes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    notes = doc["convention_notes"]
    assert len(notes) >= 8
    models_noted = {n["model"] for n in notes}
    assert {"central1", "central2", "noncentral", "double"} <= models_noted
    assert all(n["oracle_agrees_with_implementation"] for n in notes)
    assert all(np.isfinite(n["difference_at_probe"]) for n in notes)


def test_verify_corrupted_structure_fails_with_exit_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corrupt": {"model": "base", "a": "P1", "b": "P2", "out": "P1",
                    "delta": 1.0}
    }))
    code = run(["verify", "--model", "base", "--config", str(cfg)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_empty_model_list_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": []}))
    assert run(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("cfg", [
    {"models": "double"},
    {"seed": "abc"},
    {"corrupt": 5},
    {"corrupt": {"model": "base", "a": "P1", "b": "P2", "out": "S"}},
], ids=["models-string", "seed-string", "corrupt-number", "corrupt-label"])
def test_verify_bad_config_is_one_line_usage_error(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_config_that_is_not_utf8_is_one_line_usage_error(tmp_path,
                                                                capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    assert run(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "base"],
    ["simulate", "--model", "double", "--flow", "group", "--dt", "0.1",
     "--steps", "10", "--point", "0,0,1,0"],
], ids=["verify", "simulate"])
def test_unwritable_out_is_one_line_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--model", "double", "--seed", "7",
                "--out", str(a)]) == 0
    assert run(["verify", "--model", "double", "--seed", "7",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------- orbit

def test_orbit_central1_documented_values(capsys):
    code = run(["orbit", "--model", "central1",
                "--xi", "0,1,0,0,1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "s = 0.5" in text
    assert "[0.0, 1.0],\n [-1.0, 0.0]" in text


def test_orbit_double_rest_point(capsys):
    code = run(["orbit", "--model", "double",
                "--xi", "0.25,0,0,1.5,0,0,1,1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "s = 0.25" in text
    assert "U = 1.5" in text


def test_orbit_degenerate_force_is_reported(capsys):
    code = run(["orbit", "--model", "noncentral",
                "--xi", "0,1,0,0,0,0,1"])
    assert code == 2
    assert "threshold" in capsys.readouterr().err


def test_orbit_wrong_arity_is_usage_error(capsys):
    assert run(["orbit", "--model", "central1", "--xi", "1,2,3"]) == 2


def test_orbit_base_model_has_no_chart():
    assert run(["orbit", "--model", "base", "--xi", "0,0,0,0"]) == 2


# ---------------------------------------------------------------- simulate

def test_simulate_double_group_flow_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--model", "double", "--flow", "group",
                "--dt", "0.003", "--steps", "1000", "--out", str(out),
                "--point", "0,0,1,0"])
    assert code == 0
    header, data = cli.read_trajectory_csv(str(out))
    assert header == ["t", "p1", "p2", "q1", "q2", "h", "k", "s", "U"]
    assert data.shape == (1001, 9)
    final = data[-1]
    assert final[0] == pytest.approx(3.0)
    assert final[1] == pytest.approx(-3.0, abs=1e-12)   # p1 = -k q1 t
    assert final[3] == pytest.approx(1.0)               # q1 frozen


def test_simulate_central2_group_flow_final_action(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--model", "central2", "--flow", "group",
                "--dt", "0.002", "--steps", "1000", "--out", str(out),
                "--point", "0,0,0,0"])
    assert code == 0
    header, data = cli.read_trajectory_csv(str(out))
    i_l = header.index("l")
    assert data[-1][i_l] == pytest.approx(2.0, abs=1e-12)


def test_simulate_csv_round_trips_bit_exactly(tmp_path):
    out = tmp_path / "traj.csv"
    run(["simulate", "--model", "double", "--flow", "hamiltonian",
         "--hamiltonian", "kinetic", "--integrator", "rk4",
         "--dt", "0.01", "--steps", "100", "--out", str(out),
         "--point", "1,0,0,0"])
    header, data = cli.read_trajectory_csv(str(out))
    out2 = tmp_path / "traj2.csv"
    with open(out2, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    assert out.read_bytes() == out2.read_bytes()


def test_trajectory_csv_matches_per_value_format(tmp_path):
    # the one-pass writer against the per-value _fmt join, on values whose
    # shortest repr is long, signed, subnormal or exponent-formatted
    awkward = [-0.0, 1e-300, 0.1 + 0.2, 1.7976931348623157e308, -5e-324,
               123456789012345680.0, 1.0 / 3.0, -2.5e-7, 0.0, 42.0]
    times = np.array([0.0, 0.1 + 0.2, 1e300])
    coords = np.array(awkward[:4] + awkward[2:6] + awkward[6:10]).reshape(3, 4)
    casimirs = np.array(awkward[::-1] + awkward[:2]).reshape(3, 4)
    traj = Trajectory(model=ModelId.DOUBLE, times=times, coords=coords,
                      casimir_names=("h", "k", "s", "U"),
                      casimir_series=casimirs)
    out = tmp_path / "traj.csv"
    cli.write_trajectory_csv(str(out), traj)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p1,p2,q1,q2,h,k,s,U"
    for i, line in enumerate(lines[1:]):
        row = [times[i], *coords[i], *casimirs[i]]
        assert line == ",".join(cli._fmt(v) for v in row)
    _, data = cli.read_trajectory_csv(str(out))
    table = np.column_stack((times, coords, casimirs)) + 0.0
    assert np.array_equal(data.view(np.uint64), table.view(np.uint64))


def _per_row_csv(path, traj):
    """The writer that formats every value of every row, Casimirs included."""
    header = ["t", *ao.CHART_COORDS[traj.model], *traj.casimir_names]
    table = np.column_stack((traj.times, traj.coords,
                             traj.casimir_series)) + 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in table.tolist())


def _hamiltonian_trajectory():
    params = ao.ModelParams(m=1.7, omega=0.6, r=1.3)
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, params)
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), params,
                        h=1.4, k=0.7)
    spec = ao.FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=300,
                       integrator="implicit-midpoint", hamiltonian=ham,
                       gradient=grad)
    return ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, params)


def _group_trajectory():
    params = ao.ModelParams(m=1.7, omega=0.6, r=1.3)
    xi = ao.dual_vector(ModelId.NONCENTRAL, j=0.4, p1=0.3, p2=-0.2, E=0.7,
                        f1=0.5, f2=-0.1, h=1.0)
    z0 = ao.chart_from_dual(ModelId.NONCENTRAL, xi, params)
    spec = ao.FlowSpec(kind="group-time-flow", dt=1e-2, nsteps=300)
    traj = ao.hamiltonian_flow(ModelId.NONCENTRAL, spec, z0, params)
    series = traj.casimir_series
    assert not (series == series[0]).all()  # the per-row path
    return traj


def _signed_zero_trajectory():
    coords = np.array([[-0.0, 0.5, -0.0, 1e-300], [0.0, -0.0, 0.25, -5e-324],
                       [0.1 + 0.2, -0.0, -0.0, 0.0]])
    # rows equal under ==, spelled with either zero
    series = np.array([[-0.0, 1.0, 0.1 + 0.2, -2.5e-7],
                       [0.0, 1.0, 0.1 + 0.2, -2.5e-7],
                       [-0.0, 1.0, 0.1 + 0.2, -2.5e-7]])
    return Trajectory(model=ModelId.DOUBLE, times=np.array([-0.0, 0.5, 1.0]),
                      coords=coords, casimir_names=("h", "k", "s", "U"),
                      casimir_series=series)


@pytest.mark.parametrize("make", [_hamiltonian_trajectory, _group_trajectory,
                                  _signed_zero_trajectory],
                         ids=["hamiltonian", "group", "signed-zero"])
def test_trajectory_csv_equals_the_per_row_writer(tmp_path, make):
    traj = make()
    out, ref = tmp_path / "traj.csv", tmp_path / "ref.csv"
    cli.write_trajectory_csv(str(out), traj)
    _per_row_csv(str(ref), traj)
    assert out.read_bytes() == ref.read_bytes()


def test_simulate_json_document_carries_drift(tmp_path):
    out = tmp_path / "traj.json"
    code = run(["simulate", "--model", "double", "--flow", "hamiltonian",
                "--hamiltonian", "kinetic", "--dt", "0.01", "--steps", "200",
                "--format", "json", "--out", str(out), "--point", "1,0,0,0"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 201
    assert doc["drift"]["H"] < 1e-9
    assert doc["drift"]["s"] < 1e-12


_STEPS, _DT, _POINT = ["--steps", "10"], ["--dt", "0.1"], ["--point=1,0,0,0"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags,cfg", [
    (["--dt", "nan"] + _STEPS + _POINT, None),
    (["--dt", "inf"] + _STEPS + _POINT, None),
    (_DT + _STEPS + ["--point=1,0,0,nan"], None),
    (_DT + _POINT, {"steps": "x"}),
    (_STEPS + _POINT, {"dt": "0.1"}),
    (_DT + _STEPS + _POINT, {"m": float("inf")}),
], ids=["dt-nan", "dt-inf", "point-nan", "steps-string", "dt-string",
        "m-inf"])
def test_simulate_bad_input_is_one_line_usage_error(tmp_path, capsys, flags,
                                                    cfg):
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--model", "double", "--flow", "hamiltonian",
            "--out", str(out)] + flags
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["orbit", "--model", "double", "--xi", "0,1,0,0,0,nan,1,1"],
    ["bracket", "--model", "double", "--at", "0,0,0,0", "--f", "p1",
     "--g", "p2", "--label", "h=inf"],
], ids=["orbit-xi-nan", "bracket-label-inf"])
def test_non_finite_numbers_are_one_line_usage_errors(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("f", ["-1", "0"])
def test_simulate_non_positive_force_label_is_usage_error(tmp_path, capsys, f):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--model", "noncentral", "--flow", "hamiltonian",
                "--hamiltonian", "energy", "--point=0.1,0.5,0.2,0.3",
                "--label", f"f={f}", "--steps", "10", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_simulate_zero_steps_is_usage_error(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--model", "double", "--flow", "group",
                "--dt", "0.1", "--steps", "0", "--out", str(out),
                "--point", "0,0,1,0"]) == 2


def test_simulate_without_initial_state_is_usage_error(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--model", "double", "--flow", "group",
                "--dt", "0.1", "--steps", "10", "--out", str(out)]) == 2


def test_simulate_label_override(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--model", "double", "--flow", "group",
                "--dt", "0.1", "--steps", "10", "--out", str(out),
                "--point", "0,0,1,0", "--label", "k=2.0"])
    assert code == 0
    header, data = cli.read_trajectory_csv(str(out))
    assert data[-1][header.index("p1")] == pytest.approx(-2.0, abs=1e-12)


# ----------------------------------------------------------------- bracket

def test_bracket_command_double_magnetic_pair(capsys):
    code = run(["bracket", "--model", "double", "--at", "0.3,0.1,-0.2,0.5",
                "--f", "p1", "--g", "p2"])
    assert code == 0
    assert "{p1, p2} = -1.0" in capsys.readouterr().out


def test_bracket_command_noncentral_pair(capsys):
    code = run(["bracket", "--model", "noncentral", "--at", "0.2,0.4,0.6,0.9",
                "--f", "j", "--g", "q"])
    assert code == 0
    assert "{j, q} = -0.6" in capsys.readouterr().out


def test_simulate_fully_driven_by_config_document(tmp_path):
    out = tmp_path / "traj.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "double",
        "flow": "group",
        "dt": 0.003,
        "steps": 1000,
        "point": [0, 0, 1, 0],
        "out": str(out),
    }))
    assert run(["simulate", "--config", str(cfg)]) == 0
    header, data = cli.read_trajectory_csv(str(out))
    assert data[-1][header.index("p1")] == pytest.approx(-3.0, abs=1e-12)


def test_simulate_flag_overrides_config(tmp_path):
    out_cfg = tmp_path / "a.csv"
    out_flag = tmp_path / "b.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "double", "flow": "group", "dt": 0.1, "steps": 10,
        "point": "0,0,1,0", "out": str(out_cfg),
    }))
    assert run(["simulate", "--config", str(cfg), "--out", str(out_flag)]) == 0
    assert out_flag.exists() and not out_cfg.exists()


def test_simulate_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "double", "bogus": 1}))
    assert run(["simulate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("integrator,tolerance", [
    ("implicit-midpoint", 1e-6), ("rk4", 1e-9)])
def test_readme_cyclotron_keeps_its_energy_and_orbit(tmp_path, capsys,
                                                     integrator, tolerance):
    # one period of the README magnetic example: the energy drift stays at
    # rounding level, and the final point is on the closed-form circle
    out = tmp_path / "circle.csv"
    code = run(["simulate", "--model", "double", "--flow", "hamiltonian",
                "--hamiltonian", "kinetic", "--integrator", integrator,
                "--dt", "0.001", "--steps", "6283", "--point", "1,0,0,0",
                "--out", str(out)])
    assert code == 0
    drift = capsys.readouterr().out.split("invariant drift: ")[1]
    fields = dict(item.split(" = ") for item in drift.strip().split(", "))
    assert float(fields["H"]) <= 2e-14
    _, data = cli.read_trajectory_csv(str(out))
    t, z = data[-1, 0], data[-1, 1:5]
    p, q = cyclotron_exact(np.array([1.0, 0.0]), np.zeros(2), t,
                           ModelParams())
    assert t == pytest.approx(6.283, abs=1e-12)
    assert np.abs(z - np.concatenate([p, q])).max() < tolerance


@pytest.mark.parametrize("integrator", ["implicit-midpoint", "rk4"])
def test_noncentral_energy_flow_keeps_its_energy_and_orbit(tmp_path, capsys,
                                                           integrator):
    # the benchmark's noncentral command: dp/dt = f at f = 1, so p moves by
    # t (cos phi_f, sin phi_f) and q = -p2 / (m omega) by -t sin phi_f, while
    # j and phi_f stay put
    j, phi, p, q = 0.3, -2.1, 0.4, -0.7
    out = tmp_path / "noncentral.csv"
    code = run(["simulate", "--model", "noncentral", "--flow", "hamiltonian",
                "--hamiltonian", "energy", "--integrator", integrator,
                "--dt", "0.001", "--steps", "2000",
                f"--point={j},{phi},{p},{q}", "--out", str(out)])
    assert code == 0
    drift = capsys.readouterr().out.split("invariant drift: ")[1]
    fields = dict(item.split(" = ") for item in drift.strip().split(", "))
    assert float(fields["H"]) <= 2e-14
    _, data = cli.read_trajectory_csv(str(out))
    t, z = data[-1, 0], data[-1, 1:5]
    assert t == pytest.approx(2.0, abs=1e-12)
    want = (j, phi, p + np.cos(phi) * t, q - np.sin(phi) * t)
    assert np.abs(z - want).max() < 1e-12


def test_simulate_divergent_solver_is_numeric_failure(tmp_path, capsys):
    # dt far above the fixed-point contraction bound: exit code 3
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--model", "double", "--flow", "hamiltonian",
                "--hamiltonian", "kinetic", "--dt", "3.0", "--steps", "5",
                "--out", str(out), "--point", "1,0,0,0"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("flags,lines,partial", [
    (["--model", "double", "--hamiltonian", "kinetic", "--integrator", "rk4",
      "--dt", "10", "--steps", "1000", "--point", "1,0,0,0"], 2, True),
    (["--model", "noncentral", "--hamiltonian", "energy",
      "--point=0.1,0.5,0.2,0.3", "--label", "f=1e300", "--steps", "10"],
     1, False),
    # finite states whose energy overflows: no trajectory, not a nan drift
    (["--model", "double", "--hamiltonian", "kinetic",
      "--point", "1e200,0,0,0", "--steps", "10"], 1, False),
], ids=["double-rk4-overflow", "noncentral-midpoint-overflow",
        "double-energy-overflow"])
def test_overflowing_flow_fails_without_numpy_warnings(tmp_path, flags, lines,
                                                        partial):
    # a fresh interpreter shows stderr as a user sees it, warnings included
    out = tmp_path / "traj.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "aristotle_orbits.cli", "simulate", "--flow",
         "hamiltonian", *flags, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == lines, proc.stderr
    assert out.exists() == partial


@pytest.mark.parametrize("mass,code", [("1e300", 3), ("1e-300", 2)])
def test_verify_at_extreme_mass_fails_without_numpy_warnings(tmp_path, mass,
                                                            code):
    # a fresh interpreter shows stderr as a user sees it, warnings included
    out = tmp_path / "report.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "aristotle_orbits.cli", "verify", "--m", mass,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not out.exists()


def test_bracket_unknown_coordinate_is_usage_error():
    assert run(["bracket", "--model", "double", "--at", "0,0,0,0",
                "--f", "p1", "--g", "zz"]) == 2


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 2
