import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams, Trajectory, cli, verify
from helpers import cyclotron_exact, read_trajectory_csv


def run(argv):
    return cli.main(argv)


def fresh_cli(*argv):
    """The command line in a fresh interpreter.

    Its stderr is what a user sees, numpy warnings included.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "aristotle_orbits.cli",
                           *argv], capture_output=True, text=True, env=env,
                          timeout=60)


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


def test_verify_all_models_report_has_convention_notes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    notes = doc["convention_notes"]
    assert len(notes) >= 8
    models_noted = {n["model"] for n in notes}
    assert {"central1", "central2", "noncentral", "double"} <= models_noted
    for n in notes:
        assert n["oracle_agrees_with_implementation"] is True, n
        assert n["oracle_rejects_alternate"] is True, n
        assert np.isfinite(n["difference_at_probe"])
    assert (f"convention notes: {len(notes)}, {len(notes)} confirmed by the "
            f"exponential oracle (see JSON") in capsys.readouterr().out


def test_verify_names_an_unconfirmed_note_and_still_passes(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # the alternate is the implementation: the oracle agrees with it but
    # cannot reject the alternate, so the note is not confirmed
    note = verify.Note(ModelId.CENTRAL1, "angular momentum", "ours", "ours",
                       verify._coadjoint_term(0, lambda x, g, xi, p: 0.0))
    monkeypatch.setattr(verify, "CONVENTION_NOTES", (note,))
    out = tmp_path / "report.json"
    assert run(["verify", "--model", "central1", "--out", str(out)]) == 0
    assert ("convention notes: 1, 0 confirmed by the exponential oracle; "
            "not confirmed: central1: angular momentum (see JSON"
            ) in capsys.readouterr().out
    [entry] = json.loads(out.read_text())["convention_notes"]
    assert entry["difference_at_probe"] == 0.0
    assert entry["oracle_agrees_with_implementation"] is True
    assert entry["oracle_rejects_alternate"] is False
    assert "remark" not in entry


def test_verify_corrupted_structure_fails_with_exit_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corrupt": {"model": "base", "a": "P1", "b": "P2", "out": "P1",
                    "delta": 1.0}
    }))
    code = run(["verify", "--model", "base", "--config", str(cfg)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


_DOC, _ALL = {"seed": 3, "models": ["base"]}, {m.value for m in ModelId}


@pytest.mark.parametrize("flags,cfg,seed,models", [
    ([], {}, 0, _ALL),
    ([], _DOC, 3, {"base"}),
    (["--seed", "5", "--model", "all"], _DOC, 5, _ALL),
    (["--seed", "5", "--model", "double"], _DOC, 5, {"double"}),
], ids=["defaults", "document", "flags-all", "flags-one-model"])
def test_verify_flags_beat_the_document_which_beats_the_defaults(
        tmp_path, flags, cfg, seed, models):
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", *flags, "--config", str(path),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == seed
    assert {c["name"].partition(": ")[0] for c in doc["checks"]
            if ": " in c["name"]} == models


def test_verify_empty_model_list_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": []}))
    assert run(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("cfg", [
    {"models": "double"},
    {"seed": "abc"},
    {"corrupt": 5},
    {"corrupt": {"model": "base", "a": "P1", "b": "P2", "out": "S"}},
    {"m": 2.0, "sed": 5},
    {"model": "double"},
    {"corrupt": {"model": "base", "a": "P1", "b": "P2", "out": "P1",
                 "dleta": 0.0}},
], ids=["models-string", "seed-string", "corrupt-number", "corrupt-label",
        "unknown-keys", "unknown-model-key", "unknown-corrupt-key"])
def test_verify_bad_config_is_one_line_usage_error(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


_VERIFY_DOC = {"seed": 3, "models": ["double"],
               "corrupt": {"model": "double", "a": "P1", "b": "P2",
                           "out": "P1"}}


@pytest.mark.parametrize("key", sorted(_VERIFY_DOC))
def test_verify_null_config_value_is_an_unset_key(tmp_path, capsys, key):
    def outcome(doc):
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code = run(["verify", "--config", str(path), "--out", str(out)])
        return code, capsys.readouterr(), out.read_bytes()
    without = {k: v for k, v in _VERIFY_DOC.items() if k != key}
    assert outcome({**_VERIFY_DOC, key: None}) == outcome(without)


def test_verify_config_that_is_not_utf8_is_one_line_usage_error(tmp_path,
                                                                capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    assert run(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


_GROUP_FLOW = ["simulate", "--model", "double", "--flow", "group", "--dt",
               "0.1", "--steps", "10", "--point", "0,0,1,0"]


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "base"],
    _GROUP_FLOW,
    _GROUP_FLOW + ["--format", "json"],
    # the partial trajectory of a failing flow goes to the same path
    ["simulate", "--flow", "hamiltonian", "--model", "double",
     "--hamiltonian", "kinetic", "--integrator", "rk4", "--dt", "10",
     "--steps", "1000", "--point", "1,0,0,0"],
], ids=["verify", "simulate", "simulate-json", "simulate-partial"])
def test_unwritable_out_is_one_line_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # verify writes its report before the table
    err = captured.err
    assert err.startswith("error: cannot write output:")
    assert err.count("\n") == 1 and "Traceback" not in err


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


def test_orbit_that_fails_prints_nothing(capsys):
    # f sin(phi_f) = 0, where the noncentral restricted form is singular:
    # no header line is printed before the failure
    code = run(["orbit", "--model", "noncentral",
                "--xi", "0,0,0,0,1,0,1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numeric failure:")
    assert captured.err.count("\n") == 1


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
    header, data = read_trajectory_csv(str(out))
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
    header, data = read_trajectory_csv(str(out))
    i_l = header.index("l")
    assert data[-1][i_l] == pytest.approx(2.0, abs=1e-12)


def test_simulate_csv_round_trips_bit_exactly(tmp_path):
    out = tmp_path / "traj.csv"
    run(["simulate", "--model", "double", "--flow", "hamiltonian",
         "--hamiltonian", "kinetic", "--integrator", "rk4",
         "--dt", "0.01", "--steps", "100", "--out", str(out),
         "--point", "1,0,0,0"])
    header, data = read_trajectory_csv(str(out))
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
                      casimir_series=casimirs)
    out = tmp_path / "traj.csv"
    cli.write_trajectory_csv(str(out), traj)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p1,p2,q1,q2,h,k,s,U"
    for i, line in enumerate(lines[1:]):
        row = [times[i], *coords[i], *casimirs[i]]
        assert line == ",".join(cli._fmt(v) for v in row)
    _, data = read_trajectory_csv(str(out))
    table = np.column_stack((times, coords, casimirs)) + 0.0
    assert np.array_equal(data.view(np.uint64), table.view(np.uint64))


def _per_row_csv(path, traj):
    """The writer that formats every value of every row, Casimirs included."""
    header = ["t", *ao.CHART_COORDS[traj.model],
              *ao.CASIMIR_NAMES[traj.model]]
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
                      coords=coords, casimir_series=series)


def _noncentral_energy_trajectory():
    # j and phi_f stay put: constant columns ahead of the moving p and q
    params = ao.ModelParams(m=1.7, omega=0.6, r=1.3)
    z0 = ao.orbit_point(ModelId.NONCENTRAL, (0.4, 0.9, -0.3, 0.2), params)
    ham, grad = ao.energy_hamiltonian(ModelId.NONCENTRAL, z0, params)
    spec = ao.FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=300,
                       integrator="implicit-midpoint", hamiltonian=ham,
                       gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.NONCENTRAL, spec, z0, params)
    moving = (traj.coords != traj.coords[0]).any(axis=0)
    assert moving.tolist() == [False, False, True, True]
    return traj


def _one_row_trajectory():
    # every column is constant, the time column included
    return Trajectory(model=ModelId.DOUBLE, times=np.array([-0.0]),
                      coords=np.array([[0.1 + 0.2, -0.0, 1e-300, -5e-324]]),
                      casimir_series=np.array([[1.0, -2.5e-7, 0.0, 1e300]]))


def _late_change_trajectory():
    # constant in every row but the last, across more than two blocks
    n = 2 * cli._CSV_BLOCK + 1
    coords = np.tile([0.5, -0.0, 1.0 / 3.0, 2.0], (n, 1))
    coords[:, 0] = np.linspace(0.0, 1.0, n)
    coords[-1, 2] = 0.25
    series = np.tile([1.0, 0.1 + 0.2, -0.0, 7.0], (n, 1))
    series[-1, 3] = 7.5
    return Trajectory(model=ModelId.DOUBLE, times=0.01 * np.arange(n),
                      coords=coords, casimir_series=series)


#: Values at the edges of the range where orjson's text is repr's.
_WINDOW_EDGES = tuple(sign * v for v in (
    math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e16, 0.0), 1e16, 5e-324,
    1e-300, math.nan, math.inf) for sign in (1.0, -1.0))


def _window_edge_trajectory():
    # moving columns reach the window edges and non-finite values in the
    # middle block of three, as the last rows of a partial run can
    n = 2 * cli._CSV_BLOCK + 5
    coords = np.tile([0.5, -0.0, 1.0 / 3.0, 2.0], (n, 1))
    coords[:, 1] = np.linspace(-1.0, 1.0, n)
    # one edge value per row, so that no other value of the row hides it
    rows = cli._CSV_BLOCK + np.arange(len(_WINDOW_EDGES))
    coords[rows, 1] = _WINDOW_EDGES
    coords[rows + len(_WINDOW_EDGES), 3] = _WINDOW_EDGES
    series = np.tile([1.0, 0.1 + 0.2, -0.0, 7.0], (n, 1))
    return Trajectory(model=ModelId.DOUBLE, times=0.01 * np.arange(n),
                      coords=coords, casimir_series=series)


def _out_of_window_rows_trajectory():
    # out-of-window values in the first row, on both sides of a block
    # boundary and in the last row, with an in-window block between them
    n = 4 * cli._CSV_BLOCK + 3
    coords = np.tile([0.5, -0.0, 1.0 / 3.0, 2.0], (n, 1))
    coords[:, 1] = np.linspace(-1.0, 1.0, n)
    coords[[0, 2 * cli._CSV_BLOCK - 1, 2 * cli._CSV_BLOCK, n - 1], 1] = (
        5e-324, 1e16, -1e-300, -1e17)
    series = np.tile([1.0, 0.1 + 0.2, -0.0, 7.0], (n, 1))
    return Trajectory(model=ModelId.DOUBLE, times=0.01 * np.arange(n),
                      coords=coords, casimir_series=series)


def _partial_trajectory():
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, ao.ModelParams())
    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), ao.ModelParams())
    spec = ao.FlowSpec(kind="hamiltonian", dt=10.0, nsteps=1000,
                       integrator="rk4", hamiltonian=ham, gradient=grad)
    with pytest.raises(ao.FlowSingularityError) as info:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, ao.ModelParams())
    assert len(info.value.partial.times) > 1
    return info.value.partial


def _frozen_coordinate_trajectory():
    # at phi_f = 0 the noncentral energy flow also keeps q put: the trailing
    # constant run reaches into the chart coordinates
    params = ao.ModelParams(m=1.7, omega=0.6, r=1.3)
    z0 = ao.orbit_point(ModelId.NONCENTRAL, (0.4, 0.0, -0.3, 0.2), params)
    ham, grad = ao.energy_hamiltonian(ModelId.NONCENTRAL, z0, params)
    spec = ao.FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=300,
                       integrator="implicit-midpoint", hamiltonian=ham,
                       gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.NONCENTRAL, spec, z0, params)
    moving = (traj.coords != traj.coords[0]).any(axis=0)
    assert moving.tolist() == [False, False, True, False]
    return traj


def _double_trajectory(series):
    """Rows of series after moving double-model chart coordinates."""
    n = len(series)
    coords = np.tile([0.5, -0.25, 1.0 / 3.0, 2.0], (n, 1))
    coords[:, 3] = np.linspace(-1.0, 1.0, n)
    return Trajectory(model=ModelId.DOUBLE, times=0.01 * np.arange(n),
                      coords=coords, casimir_series=series)


def _nan_label_trajectory():
    # one NaN in a label column between constant ones: NaN is never
    # constant, so the scan stops at that column
    series = np.tile([1.0, 0.1 + 0.2, -2.5e-7, 7.0], (301, 1))
    series[150, 1] = math.nan
    return _double_trajectory(series)


def _whole_blocks_trajectory():
    # n an exact multiple of the block length: no short last block
    return _double_trajectory(np.tile([1.0, 0.5, 0.25, 7.0],
                                      (2 * cli._CSV_BLOCK, 1)))


def _bare_line_end_trajectory():
    # the last label column moves too, so no constant run ends the rows
    series = np.tile([1.0, 0.5, 0.25, 7.0], (2 * cli._CSV_BLOCK + 3, 1))
    series[:, 3] = np.linspace(7.0, 8.0, len(series))
    return _double_trajectory(series)


def _one_column_trajectory():
    # only the time column moves: the table is that one column
    n = cli._CSV_BLOCK + 5
    return Trajectory(model=ModelId.DOUBLE, times=0.01 * np.arange(n),
                      coords=np.tile([0.5, -0.25, 1.0 / 3.0, 2.0], (n, 1)),
                      casimir_series=np.tile([1.0, 0.5, 0.25, 7.0], (n, 1)))


def _negative_zero_label_trajectory():
    # labels broadcast down the rows, as a Hamiltonian flow carries them,
    # with -0.0 in the first row of constant suffix columns
    labels = np.array([-0.0, 1.0, -0.0, 2.5])
    return _double_trajectory(np.broadcast_to(labels, (301, 4)))


@pytest.mark.parametrize("make", [_hamiltonian_trajectory, _group_trajectory,
                                  _signed_zero_trajectory,
                                  _noncentral_energy_trajectory,
                                  _one_row_trajectory, _late_change_trajectory,
                                  _window_edge_trajectory,
                                  _out_of_window_rows_trajectory,
                                  _partial_trajectory,
                                  _frozen_coordinate_trajectory,
                                  _nan_label_trajectory,
                                  _whole_blocks_trajectory,
                                  _bare_line_end_trajectory,
                                  _one_column_trajectory,
                                  _negative_zero_label_trajectory],
                         ids=["hamiltonian", "group", "signed-zero",
                              "noncentral-energy", "one-row", "late-change",
                              "window-edges", "out-of-window-rows", "partial",
                              "frozen-coordinate", "nan-label", "whole-blocks",
                              "bare-line-end", "one-column",
                              "negative-zero-label"])
def test_trajectory_csv_equals_the_per_row_writer(tmp_path, make):
    traj = make()
    out, ref = tmp_path / "traj.csv", tmp_path / "ref.csv"
    cli.write_trajectory_csv(str(out), traj)
    _per_row_csv(str(ref), traj)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("end", [
    b"\n", "".join("," + repr(v) for v in _WINDOW_EDGES).encode() + b"\n"],
    ids=["newline", "labels"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows=st.integers(1, 9).flatmap(lambda width: st.lists(
    st.lists(st.floats() | st.sampled_from(_WINDOW_EDGES), min_size=width,
             max_size=width), min_size=1, max_size=6)))
@example(rows=[list(_WINDOW_EDGES)])
@example(rows=[[v] for v in _WINDOW_EDGES])
@example(rows=[[0.5, v, -2.0] for v in _WINDOW_EDGES])
def test_csv_block_is_the_repr_join_of_each_row(rows, end):
    # the guard on the orjson formatter, whatever its version: a bare line
    # end takes the split path, a ","-led one the replace path where every
    # value of the block is in the window
    text = cli._csv_block(np.array(rows), end)
    assert text == b"".join(",".join(map(repr, row)).encode() + end
                            for row in rows)


def test_simulate_json_document_carries_drift(tmp_path):
    out = tmp_path / "traj.json"
    code = run(["simulate", "--model", "double", "--flow", "hamiltonian",
                "--hamiltonian", "kinetic", "--dt", "0.01", "--steps", "200",
                "--format", "json", "--out", str(out), "--point", "1,0,0,0"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 201
    # a Hamiltonian flow's Casimir columns are its labels: only H can drift
    assert list(doc["drift"]) == ["H"]
    assert doc["drift"]["H"] < 1e-9


_STEPS, _DT, _POINT = ["--steps", "10"], ["--dt", "0.1"], ["--point=1,0,0,0"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags,cfg", [
    (["--dt", "nan"] + _STEPS + _POINT, None),
    (["--dt", "inf"] + _STEPS + _POINT, None),
    (_DT + _STEPS + ["--point=1,0,0,nan"], None),
    (_DT + _POINT, {"steps": "x"}),
    (_STEPS + _POINT, {"dt": "0.1"}),
    (_DT + _STEPS + _POINT, {"m": float("inf")}),
    (_DT + _STEPS + _POINT, {"integrator": "euler"}),
    (_DT + _STEPS + _POINT, {"format": "xml"}),
], ids=["dt-nan", "dt-inf", "point-nan", "steps-string", "dt-string",
        "m-inf", "integrator-euler", "format-xml"])
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


@pytest.mark.parametrize("key,value", [
    ("model", 7), ("out", 1), ("out", "traj\0.csv"), ("label", [5])],
    ids=["model", "out", "out-nul", "label"])
def test_simulate_document_value_its_flag_rejects_is_a_usage_error(
        tmp_path, capsys, key, value):
    # the test above passes --model and --out, which beat the document
    out = tmp_path / "traj.csv"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": "double", "flow": "group", "dt": 0.1, "steps": 10,
        "point": [0, 0, 1, 0], "out": str(out), key: value}))
    assert run(["simulate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""
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
    header, data = read_trajectory_csv(str(out))
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
    header, data = read_trajectory_csv(str(out))
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


_SIM_DOC = {"model": "noncentral", "flow": "hamiltonian", "dt": 0.01,
            "steps": 20, "format": "json", "integrator": "rk4",
            "hamiltonian": "canonical", "m": 1.7, "omega": 0.6, "r": 1.3,
            "point": [0.3, 0.0, 0.4, -0.7], "label": ["h=1.7"],
            "out": "traj.out"}


@pytest.mark.parametrize("key", sorted(cli._SIM_DEFAULTS))
def test_simulate_null_config_value_is_an_unset_key(tmp_path, capsys,
                                                     monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "traj.out"

    def outcome(doc):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code = run(["simulate", "--config", "cfg.json"])
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, capsys.readouterr(), written
    without = {k: v for k, v in _SIM_DOC.items() if k != key}
    assert outcome({**_SIM_DOC, key: None}) == outcome(without)


@pytest.mark.parametrize("key", ["dt", "m", "omega", "r"])
def test_config_integer_beyond_the_float_range_is_one_line_usage_error(
        tmp_path, capsys, key):
    # JSON reads the integer exactly, and float() cannot convert it
    doc = {"model": "double", "flow": "group", "steps": 2,
           "point": [0, 0, 1, 0], "out": str(tmp_path / "traj.csv")}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc)[:-1] + f', "{key}": 1{"0" * 400}}}')
    assert run(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be a finite number")
    assert err.count("\n") == 1


def test_simulate_integer_dt_in_a_document_is_a_float(tmp_path, capsys):
    out = tmp_path / "traj.json"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "double", "flow": "group", "dt": 1, "steps": 2,
        "point": [0, 0, 1, 0], "format": "json", "out": str(out)}))
    assert run(["simulate", "--config", str(cfg)]) == 0
    assert "dt = 1.0" in capsys.readouterr().out
    assert '"dt": 1.0,' in out.read_text()


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
    _, data = read_trajectory_csv(str(out))
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
    _, data = read_trajectory_csv(str(out))
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
    (["--flow", "hamiltonian", "--model", "double", "--hamiltonian",
      "kinetic", "--integrator", "rk4", "--dt", "10", "--steps", "1000",
      "--point", "1,0,0,0"], 2, True),
    (["--flow", "hamiltonian", "--model", "noncentral", "--hamiltonian",
      "energy", "--point=0.1,0.5,0.2,0.3", "--label", "f=1e300", "--steps",
      "10"], 1, False),
    # finite states whose energy overflows: no trajectory, not a nan drift
    (["--flow", "hamiltonian", "--model", "double", "--hamiltonian",
      "kinetic", "--point", "1e200,0,0,0", "--steps", "10"], 1, False),
    # group time flows: the times overflow, or the action l + h omega t does
    (["--flow", "group", "--model", "double", "--xi",
      "0.3,0.5,-0.2,0.1,0.6,-0.4,1.0,0.7", "--dt", "1e305", "--steps",
      "10000"], 1, False),
    (["--flow", "group", "--model", "central2", "--omega", "1e300", "--xi",
      "0.3,0.5,-0.2,0.1,0.6,0.7", "--dt", "1e10", "--steps", "3"], 1, False),
], ids=["double-rk4-overflow", "noncentral-midpoint-overflow",
        "double-energy-overflow", "double-group-time-overflow",
        "central2-group-action-overflow"])
def test_overflowing_flow_fails_without_numpy_warnings(tmp_path, flags, lines,
                                                        partial):
    out = tmp_path / "traj.csv"
    proc = fresh_cli("simulate", *flags, "--out", str(out))
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == lines, proc.stderr
    assert out.exists() == partial


def test_overflowing_flow_under_json_writes_a_json_partial(tmp_path):
    flags = ["--flow", "hamiltonian", "--model", "double", "--hamiltonian",
             "kinetic", "--integrator", "rk4", "--dt", "10", "--steps", "1000",
             "--point", "1,0,0,0"]
    out, csv = tmp_path / "traj.json", tmp_path / "traj.csv"
    proc = fresh_cli("simulate", *flags, "--format", "json", "--out", str(out))
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 2, proc.stderr

    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert "drift" not in doc  # a partial run's energies may overflow
    assert doc["steps"] == len(doc["rows"]) - 1
    assert f"flow singularity: step {doc['failed_step']}:" in proc.stderr
    assert fresh_cli("simulate", *flags, "--out", str(csv)).returncode == 3
    header, data = read_trajectory_csv(str(csv))
    assert doc["columns"] == header
    assert np.array_equal(np.array(doc["rows"]), data)


@pytest.mark.parametrize("mass,code", [("1e300", 3), ("1e-300", 2)])
def test_verify_at_extreme_mass_fails_without_numpy_warnings(tmp_path, mass,
                                                            code):
    out = tmp_path / "report.json"
    proc = fresh_cli("verify", "--m", mass, "--out", str(out))
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # q = -p2 / (m omega) overflows
    ["orbit", "--model", "central1", "--m", "1e-300", "--omega", "1e-10",
     "--xi", "0.3,0.5,-0.2,0.1,0.6"],
    # s = j + |p|^2 r^2 / (2 l) overflows
    ["orbit", "--model", "central1", "--xi", "0,1e200,0,0,1"],
    ["simulate", "--model", "central1", "--flow", "group", "--m", "1e-300",
     "--omega", "1e-10", "--xi", "0.3,0.5,-0.2,0.1,0.6", "--dt", "0.1",
     "--steps", "3"],
    # kappa = l / (m omega r^2) of the chart Poisson tensor overflows
    ["simulate", "--model", "central1", "--flow", "hamiltonian",
     "--hamiltonian", "kinetic", "--m", "1e-300", "--omega", "1e-10",
     "--point", "0.1,0.2", "--label", "l=1", "--steps", "3"],
    ["simulate", "--model", "noncentral", "--flow", "hamiltonian",
     "--hamiltonian", "energy", "--m", "1e-300", "--omega", "1e-10",
     "--point", "0.1,0.2,0.3,0.4", "--label", "h=1", "--label", "f=1",
     "--steps", "3"],
    # m omega underflows to 0, so {j, q} = -p / (m omega) is 0 / 0 at p = 0
    ["bracket", "--model", "noncentral", "--m", "1e-300", "--omega", "1e-30",
     "--at", "0.1,0.2,0,0.4", "--f", "p", "--g", "j", "--label", "h=1",
     "--label", "f=1"],
], ids=["orbit-chart-overflow", "orbit-casimir-overflow",
        "simulate-chart-overflow", "simulate-kappa-overflow",
        "simulate-noncentral-kappa-overflow", "bracket-m-omega-underflow"])
def test_finite_dual_point_off_the_chart_is_a_numeric_failure(tmp_path,
                                                               argv):
    out = tmp_path / "traj.csv"
    extra = ["--out", str(out)] if argv[0] == "simulate" else []
    proc = fresh_cli(*argv, *extra)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Warning" not in proc.stderr
    assert "numeric failure" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_double_bracket_does_not_evaluate_the_unused_kappa():
    # kappa = h / (m omega r^2) overflows, but the double chart has no kappa
    proc = fresh_cli("bracket", "--model", "double", "--m", "1e-300",
                     "--omega", "1e-10", "--at", "0.1,0.2,0.3,0.4", "--f",
                     "p1", "--g", "p2", "--label", "h=1e300")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "{p1, p2} = -1e+300\n"


_EXTREME_VALUES = ("1e300", "1e-300", "1e200", "1e-200", "1e-160", "1e-153",
                   "1e100", "1e-100", "1.3e154", "1.5e-154")
_SWEPT_COMMANDS = {
    "verify": ["verify"],
    "orbit-central2": ["orbit", "--model", "central2",
                       "--xi", "0.3,0.5,-0.2,0.1,0.6,0.7"],
    "orbit-noncentral": ["orbit", "--model", "noncentral",
                         "--xi", "0.3,0.5,-0.2,0.1,0.6,-0.4,0.7"],
    "bracket-double": ["bracket", "--model", "double", "--at",
                       "0.1,0.2,0.3,0.4", "--f", "p1", "--g", "p2"],
    "simulate-double-kinetic": ["simulate", "--model", "double", "--flow",
                                "hamiltonian", "--hamiltonian", "kinetic",
                                "--point", "1,0,0,0"],
    "simulate-noncentral-energy": ["simulate", "--model", "noncentral",
                                   "--flow", "hamiltonian", "--hamiltonian",
                                   "energy", "--point=0.3,-2.1,0.4,-0.7"],
    "simulate-central1-group": ["simulate", "--model", "central1", "--flow",
                                "group", "--xi", "0.3,0.5,-0.2,0.1,0.6"],
}


@pytest.mark.parametrize("flag", ["--m", "--omega", "--r"])
@pytest.mark.parametrize("command", list(_SWEPT_COMMANDS))
def test_extreme_parameters_keep_the_exit_code_contract(tmp_path, capsys,
                                                         command, flag):
    # every parameter at the edges of the float range, where squares and
    # reciprocals overflow or underflow: a documented exit code, at most
    # one stderr line, no traceback and no numpy warning (the suite turns
    # those into errors)
    argv = list(_SWEPT_COMMANDS[command])
    if argv[0] == "simulate":
        argv += ["--dt", "0.01", "--steps", "20",
                 "--out", str(tmp_path / "traj.csv")]
    for value in _EXTREME_VALUES:
        run_argv = argv + [flag, value]
        try:
            code = run(run_argv)
        except Exception as exc:
            raise AssertionError(f"{run_argv}: {exc!r}") from exc
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), run_argv
        assert len(err.splitlines()) <= 1, (run_argv, err)
        if code == 1:
            # a property check failed, which only verify reports
            assert argv[0] == "verify", run_argv
            assert err == "" and "RESULT: FAIL" in out, run_argv


_SIM_ARGV = ["simulate", "--out", "traj.csv", "--dt", "0.1", "--steps", "5"]
_NO_CHART = "central1, central2, noncentral, double"


# inputs that only the library checks: its one-line error names the model
# and what it expects
@pytest.mark.parametrize("argv,names", [
    (["orbit", "--model", "base", "--xi", "0,0,0,0"], ["base", _NO_CHART]),
    (_SIM_ARGV + ["--model", "base", "--point", "0,0,0,0"],
     ["base", _NO_CHART]),
    (["bracket", "--model", "base", "--at", "0,0,0,0", "--f", "p1", "--g",
      "p2"], ["base", _NO_CHART]),
    (["orbit", "--model", "central1", "--xi", "1,2,3"], ["central1", "5"]),
    (_SIM_ARGV + ["--model", "central1", "--xi", "1,2,3"], ["central1", "5"]),
    (_SIM_ARGV + ["--model", "double", "--point", "0,0,1"],
     ["double", "4", "('p1', 'p2', 'q1', 'q2')"]),
    (["bracket", "--model", "double", "--at", "0,0,0", "--f", "p1", "--g",
      "p2"], ["double", "4", "('p1', 'p2', 'q1', 'q2')"]),
    (["bracket", "--model", "double", "--at", "0,0,0,0", "--f", "zz", "--g",
      "p2"], ["'zz'", "double", "('p1', 'p2', 'q1', 'q2')"]),
    (["simulate", "--out", "traj.csv", "--model", "double", "--point",
      "0,0,1,0", "--steps", "0"], ["nsteps", "at least 1", "got 0"]),
    (["simulate", "--out", "traj.csv", "--model", "double", "--point",
      "0,0,1,0", "--dt", "-1"], ["dt", "positive", "got -1.0"]),
], ids=["orbit-base", "simulate-base", "bracket-base", "orbit-short-xi",
        "simulate-short-xi", "simulate-short-point", "bracket-short-at",
        "bracket-unknown-coordinate", "simulate-zero-steps",
        "simulate-negative-dt"])
def test_input_the_library_checks_is_one_line_usage_error(
        tmp_path, capsys, monkeypatch, argv, names):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert all(name in captured.err for name in names), captured.err
    assert captured.out == "" and not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("flow", ["hamiltonian", "group"])
def test_simulate_steps_beyond_memory_is_one_line_numeric_failure(
        tmp_path, capsys, monkeypatch, flow):
    # 10**15 + 1 samples are past the address space, so the allocation
    # fails at once and no memory is touched
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", "double", "--flow", flow, "--steps",
                str(10**15), "--point", "0,0,1,0", "--out", "traj.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("flow singularity: step 0: 1000000000000001 "
                            "samples do not fit in memory\n")
    assert captured.out == "" and not (tmp_path / "traj.csv").exists()


def test_bracket_unknown_coordinate_is_usage_error():
    assert run(["bracket", "--model", "double", "--at", "0,0,0,0",
                "--f", "p1", "--g", "zz"]) == 2


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 2


@pytest.fixture(scope="module")
def made_first(tmp_path_factory):
    """One output path, and each call's result in a fresh interpreter."""
    out = tmp_path_factory.mktemp("first") / "out.csv"
    results = {}

    def fresh(argv):
        if tuple(argv) not in results:
            out.unlink(missing_ok=True)
            proc = fresh_cli(*argv)
            results[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr,
                                    out.read_bytes() if out.exists() else None)
        return results[tuple(argv)]
    return out, fresh


_CYCLOTRON = ["simulate", "--model", "double", "--flow", "hamiltonian",
              "--hamiltonian", "kinetic", "--dt", "0.01", "--steps", "50",
              "--point", "1,0,0.5,0"]


@pytest.mark.parametrize("before", [
    _CYCLOTRON + ["--label", "h=2"],
    ["simulate", "--model", "nowhere", "--steps", "x"],
    ["verify", "--seed", "0"],
], ids=["label-then-none", "usage-error-then-run", "verify-then-simulate"])
def test_a_call_after_another_matches_the_call_made_first(capsys, made_first,
                                                          before):
    # main parses every call with one parser per process
    out, fresh = made_first
    for argv in (before, _CYCLOTRON):
        if argv[0] == "simulate":
            argv = [*argv, "--out", str(out)]
        out.unlink(missing_ok=True)
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err,
                out.read_bytes() if out.exists() else None) == fresh(argv)
    assert cli._parser() is cli._parser()


# -------------------------------------------------------------- cold start

def test_import_loads_no_module_it_does_not_run():
    # every command starts a fresh process: importing the package, the CLI
    # and the property suites generates no dataclass code, and leaves the
    # CSV formatter and numpy's random module to their first use
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, numpy, aristotle_orbits, aristotle_orbits.cli, "
            "aristotle_orbits.verify; print(' '.join(m for m in ('dataclasses',"
            " 'orjson', 'numpy.random') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.split() == []
