"""Command line front end.

Commands
--------
verify     run the property suites and write a structured report
orbit      print the Kirillov matrix, restricted form, Poisson tensor,
           chart point and Casimir values at a dual point
simulate   integrate a flow and write a CSV (or JSON) trajectory
bracket    evaluate one chart coordinate bracket at a point

Exit codes: 0 all checks pass / run complete, 1 check failure, 2 usage,
configuration or output-file error, 3 numeric failure.  All randomness is
controlled by --seed, and floating point values are printed with shortest
round-trip precision, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from .lie_core import (
    ModelParams,
    SeriesConvergenceError,
    _is_finite_number,
    kirillov_matrix,
)
from . import group_models as gm
from . import orbit_chart as oc
from . import dynamics as dyn
from .group_models import ModelId

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

MODEL_NAMES = tuple(m.value for m in ModelId)


class UsageError(ValueError):
    pass


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same double.

    Negative zero is normalized away; it only ever arises here as a sign
    artifact of antisymmetric matrix assembly.
    """
    return repr(float(value) + 0.0)


def _fmt_matrix(m: np.ndarray) -> str:
    rows = ("[" + ", ".join(map(_fmt, row)) + "]" for row in np.atleast_2d(m))
    return "[" + ",\n ".join(rows) + "]"


def _parse_floats(text, name: str) -> np.ndarray:
    try:
        if isinstance(text, str):
            vals = [float(v) for v in text.split(",") if v.strip() != ""]
        else:
            vals = [float(v) for v in text]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"could not parse {name}: {exc}") from None
    if not vals:
        raise UsageError(f"{name} is empty")
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"{name} must be finite numbers, got {vals}")
    return np.array(vals)


def _parse_labels(items: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"label override {item!r} is not name=value")
        name, _, text = item.partition("=")
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"label override {item!r} has a non-numeric "
                             "value") from None
        if not math.isfinite(value):
            raise UsageError(f"label override {item!r} is not finite")
        out[name.strip()] = value
    return out


def _finite_number(value, name: str) -> float:
    """value as a float if it is a finite number (a bool is not one).

    The test is lie_core._is_finite_number, so an int beyond the float
    range, which JSON reads exactly and float() cannot convert, is
    rejected.
    """
    if not _is_finite_number(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _params_from_args(args) -> ModelParams:
    try:
        return ModelParams(m=_finite_number(args.m, "m"),
                           omega=_finite_number(args.omega, "omega"),
                           r=_finite_number(args.r, "r"))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_param_flags(parser: argparse.ArgumentParser,
                     default: float | None = 1.0) -> None:
    parser.add_argument("--m", type=float, default=default, help="mass")
    parser.add_argument("--omega", type=float, default=default,
                        help="frequency")
    parser.add_argument("--r", type=float, default=default,
                        help="length scale")


def _load_config(path: str | None, keys) -> dict:
    """The JSON object at path ({} without one), whose keys are among keys.

    A null value is an unset key, so it is left out.
    """
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config document must be a JSON object")
    unknown = set(cfg) - set(keys)
    if unknown:
        raise UsageError(f"unknown config keys {sorted(unknown)}")
    return {key: value for key, value in cfg.items() if value is not None}


def _checked_seed(seed) -> int:
    """seed if it is a non-negative integer (a bool is not one)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _config_models(cfg: dict) -> list[ModelId] | None:
    wanted = cfg.get("models")
    if wanted is None:
        return None
    if not (isinstance(wanted, list)
            and all(isinstance(n, str) for n in wanted)):
        raise UsageError("config key 'models' must be a list of model names")
    if not wanted:
        raise UsageError("config selects an empty model list")
    return [ModelId.from_name(n) for n in wanted]


def _config_corruption(cfg: dict) -> dict | None:
    """The 'corrupt' entry, checked against the model it names."""
    corrupt = cfg.get("corrupt")
    if corrupt is None:
        return None
    if not isinstance(corrupt, dict) or not isinstance(corrupt.get("model"),
                                                       str):
        raise UsageError("config key 'corrupt' must be an object naming a "
                         "model and generators a, b, out")
    unknown = set(corrupt) - {"model", "a", "b", "out", "delta"}
    if unknown:
        raise UsageError(f"unknown corrupt keys {sorted(unknown)}")
    model = ModelId.from_name(corrupt["model"])
    labels = gm.ALGEBRA_LABELS[model]
    for key in ("a", "b", "out"):
        if corrupt.get(key) not in labels:
            raise UsageError(f"corrupt {key!r} must be one of the "
                             f"{model.value} generators {labels}, got "
                             f"{corrupt.get(key)!r}")
    delta = _finite_number(corrupt.get("delta", 1.0), "corrupt 'delta'")
    return {"model": model.value, "a": corrupt["a"], "b": corrupt["b"],
            "out": corrupt["out"], "delta": delta}


def cmd_verify(args) -> int:
    # imported here, so that the other commands do not load the suites
    from . import verify as verify_mod
    cfg = _load_config(args.config, ("seed", "models", "corrupt"))
    params = _params_from_args(args)
    # flags beat the document, and the document beats the defaults
    seed = _checked_seed(cfg.get("seed", 0))
    models = _config_models(cfg)
    if args.seed is not None:
        seed = _checked_seed(args.seed)
    if args.model is not None:
        models = (None if args.model == "all"
                  else [ModelId.from_name(args.model)])
    corruption = _config_corruption(cfg)
    report = verify_mod.run_verify(models=models, seed=seed, params=params,
                                   corruption=corruption)
    # the report file first, so that a failure to write it prints nothing
    if args.out:
        _write_out(args.out, _json_chunks(report.as_dict()))
    print(report.table())
    print()
    notes = report.convention_notes
    missed = [f"; not confirmed: {n['model']}: {n['term']}" for n in notes
              if not (n["oracle_agrees_with_implementation"]
                      and n["oracle_rejects_alternate"])]
    print(f"convention notes: {len(notes)}, {len(notes) - len(missed)} "
          f"confirmed by the exponential oracle{''.join(missed)} (see JSON "
          f"report for the measured differences)")
    print()
    print("RESULT:", "PASS" if report.all_passed else "FAIL")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def cmd_orbit(args) -> int:
    params = _params_from_args(args)
    model = ModelId.from_name(args.model)
    xi = _parse_floats(args.xi, "--xi")
    tensor = gm.structure_tensor(model, params)
    point = oc.chart_from_dual(model, xi, params)
    # every value before the first line, so that a failure prints nothing
    kirillov = kirillov_matrix(tensor, xi)
    omega = oc.omega_matrix(model, point, params)
    poisson = oc.poisson_tensor(model, point, params)
    print(f"model: {model.value}")
    print(f"dual labels: {', '.join(gm.DUAL_LABELS[model])}")
    print("kirillov matrix:")
    print(_fmt_matrix(kirillov))
    print(f"restricted form (directions {', '.join(oc.OMEGA_BASIS[model])}):")
    print(_fmt_matrix(omega))
    print(f"chart poisson tensor (coordinates "
          f"{', '.join(oc.CHART_COORDS[model])}):")
    print(_fmt_matrix(poisson))
    print("chart point: " + ", ".join(
        f"{n} = {_fmt(v)}"
        for n, v in zip(oc.CHART_COORDS[model], point.coords)))
    print("casimirs: " + ", ".join(
        f"{n} = {_fmt(v)}"
        for n, v in zip(oc.CASIMIR_NAMES[model], point.labels)))
    return EXIT_OK


def _initial_point(model: ModelId, args, params: ModelParams) -> oc.OrbitPoint:
    labels = _parse_labels(args.label)
    if args.xi:
        xi = _parse_floats(args.xi, "--xi")
        if labels:
            raise UsageError("--label only applies with --point")
        return oc.chart_from_dual(model, xi, params)
    if args.point:
        z = _parse_floats(args.point, "--point")
        return oc.orbit_point(model, z, params, **labels)
    raise UsageError("give an initial state with --xi or --point")


def _named_hamiltonian(name: str, model: ModelId, point: oc.OrbitPoint,
                       params: ModelParams):
    if name == "kinetic":
        return dyn.kinetic_hamiltonian(model, params)
    if name == "energy":
        return dyn.energy_hamiltonian(model, point, params)
    if name == "canonical":
        if model is not ModelId.NONCENTRAL:
            raise UsageError("the canonical hamiltonian applies to the "
                             "noncentral model")
        return dyn.canonical_hamiltonian(params)
    raise UsageError(f"unknown hamiltonian {name!r}; choose kinetic, "
                     "energy or canonical")


def _trajectory_columns(traj: dyn.Trajectory) -> tuple[list[str], list]:
    """Column names and columns (t, chart coordinates, Casimirs) of traj."""
    header = (["t"] + list(oc.CHART_COORDS[traj.model])
              + list(oc.CASIMIR_NAMES[traj.model]))
    return header, [traj.times, *traj.coords.T, *traj.casimir_series.T]


#: Lines per write: the writer holds one block of formatted rows at a time.
_CSV_BLOCK = 1024


def _csv_lines(block: np.ndarray) -> list[bytes]:
    """The rows of a 2-d float block as CSV lines, without line ends.

    Each line is ``",".join(map(repr, row))``.  orjson formats the whole
    block in one call with the same shortest round-trip digits, and where
    |x| is in [1e-4, 1e16) or x is 0 with the same text too; a row holding
    any other value (tiny, huge, NaN or infinite) is formatted by repr.
    """
    import orjson  # here, so that importing cli does not load it
    block = np.ascontiguousarray(block)  # orjson reads C order only
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    lines = text[2:-2].split(b"],[")
    size = np.abs(block)
    # the row mask only for a block not wholly inside the window (NaN fails
    # the max test)
    if not size.max() < 1e16 or ((size < 1e-4) & (block != 0)).any():
        outside = ~(((size >= 1e-4) & (size < 1e16))
                    | (block == 0)).all(axis=1)
        for i in np.flatnonzero(outside).tolist():
            lines[i] = ",".join(map(repr, block[i].tolist())).encode()
    return lines


def _open_in_place(path: str, flags: int) -> int:
    """open()'s opener for _write_out: the file is created where missing
    and never truncated, which the "wb" flags in flags would do."""
    return os.open(path, os.O_WRONLY | os.O_CREAT
                   | getattr(os, "O_BINARY", 0), 0o666)


def _write_out(path: str, chunks) -> None:
    """Write the byte strings of chunks to path; the CLI's one file writer.

    The file is rewritten in place: it is opened without O_TRUNC, written
    from offset 0, and then trimmed at the end of what was written, so it
    holds exactly those bytes.  Over an existing regular file this keeps
    the blocks and cached pages that a truncating open would free and the
    write allocate again, and it keeps the inode, the mode and any symlink
    to it.  A path that does not exist is created.  The trim also runs
    when chunks raises part way, so no stale tail follows the bytes
    written so far; it is skipped where fstat finds no regular file (a
    pipe, /dev/null), which has no tail.  Nothing is fsync'd.
    """
    with open(path, "wb", opener=_open_in_place) as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


#: Encoder pieces per JSON write: a write per piece costs more than the
#: formatting, and the whole document at once is held twice, as text and
#: as bytes.
_JSON_BATCH = 8192


def _json_chunks(doc):
    """doc as the CLI's JSON files hold it: json.dump's text, indented by
    2, and one line end, _JSON_BATCH encoder pieces a chunk."""
    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := list(itertools.islice(pieces, _JSON_BATCH)):
        yield "".join(batch).encode()
    yield b"\n"


def write_trajectory_csv(path: str, traj: dyn.Trajectory) -> None:
    """Write the columns of _trajectory_columns as CSV, one row a line.

    The trailing run of columns whose rows all equal their first (the
    Casimir labels of a Hamiltonian flow, say) is formatted once and ends
    every line; the scan runs right to left and stops at the first column
    that is not constant.  NaN is never constant, and the time column is
    never cut.  The other columns are copied into one table and go through
    _csv_lines _CSV_BLOCK rows at a time.  The bytes are those of a writer
    that formats every value of every row with repr.  The file is written
    by _write_out: in place, block by block, and trimmed at the end.
    """
    header, columns = _trajectory_columns(traj)
    n = len(traj.times)
    cut = len(columns)
    while cut > 1 and n and (columns[cut - 1] == columns[cut - 1][0]).all():
        cut -= 1
    end = "".join("," + _fmt(c[0]) for c in columns[cut:]).encode() + b"\n"
    table = np.stack(columns[:cut], axis=1, dtype=float)
    table += 0.0  # normalizes negative zero as _fmt does

    def chunks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, n, _CSV_BLOCK):
            lines = _csv_lines(table[start:start + _CSV_BLOCK])
            lines.append(b"")
            yield end.join(lines)

    _write_out(path, chunks())


#: The choices of the simulate flags that have them.
_SIM_CHOICES = {"model": MODEL_NAMES, "flow": ("group", "hamiltonian"),
                "format": ("csv", "json"),
                "integrator": ("rk4", "implicit-midpoint")}

_SIM_DEFAULTS = {
    "flow": "group", "dt": 1e-3, "steps": 10_000, "format": "csv",
    "integrator": "implicit-midpoint", "hamiltonian": "kinetic",
    "m": 1.0, "omega": 1.0, "r": 1.0,
    "model": None, "out": None, "xi": None, "point": None, "label": None,
}


def _check_config_value(key: str, value) -> None:
    """A document value must pass its flag's choices and string checks.

    Numbers and points are checked where they are parsed, for flags and
    document alike.
    """
    if key in _SIM_CHOICES and value not in _SIM_CHOICES[key]:
        raise UsageError(f"config key {key!r} must be one of "
                         f"{', '.join(_SIM_CHOICES[key])}, got {value!r}")
    if key in ("out", "hamiltonian") and not isinstance(value, str):
        raise UsageError(f"config key {key!r} must be a string, got {value!r}")
    if key == "out" and "\0" in value:
        # a flag cannot hold one, and open() raises ValueError on it
        raise UsageError(f"config key 'out' holds a NUL character: {value!r}")
    if key == "label" and not (isinstance(value, list) and all(
            isinstance(item, str) for item in value)):
        raise UsageError("config key 'label' must be a list of "
                         "name=value strings")


def _merge_config(args, cfg: dict) -> None:
    """Fill unset simulate flags from the config document, in place.

    Flags beat the document; the document beats the defaults.  A run is
    therefore fully describable by one JSON file.
    """
    for key, default in _SIM_DEFAULTS.items():
        if getattr(args, key) is None:
            if key in cfg:
                _check_config_value(key, cfg[key])
            setattr(args, key, cfg.get(key, default))


def _write_trajectory(args, traj: dyn.Trajectory, tail: dict) -> None:
    """traj to args.out in args.format; a JSON document ends with tail.

    "steps" is the number of rows written less one.  A finished run's tail
    is its drift; a partial run's is the step that failed, and no drift:
    its energies may not be finite.
    """
    if args.format == "csv":
        write_trajectory_csv(args.out, traj)
        return
    header, columns = _trajectory_columns(traj)
    doc = {
        "model": traj.model.value,
        "flow": args.flow,
        "dt": args.dt,
        "steps": len(traj.times) - 1,
        "columns": header,
        # adding 0.0 normalizes negative zero as _fmt does
        "rows": (np.column_stack(columns) + 0.0).tolist(),
        **tail,
    }
    _write_out(args.out, _json_chunks(doc))


def cmd_simulate(args) -> int:
    _merge_config(args, _load_config(args.config, _SIM_DEFAULTS))
    if args.model is None:
        raise UsageError("no model selected (flag --model or config key)")
    if args.out is None:
        raise UsageError("no output path (flag --out or config key)")
    params = _params_from_args(args)
    model = ModelId.from_name(args.model)
    args.dt = _finite_number(args.dt, "dt")
    z0 = _initial_point(model, args, params)
    hamiltonian = args.flow == "hamiltonian"
    ham, grad = (_named_hamiltonian(args.hamiltonian, model, z0, params)
                 if hamiltonian else (None, None))
    try:
        spec = dyn.FlowSpec(
            kind="hamiltonian" if hamiltonian else "group-time-flow",
            dt=args.dt, nsteps=args.steps, integrator=args.integrator,
            hamiltonian=ham, gradient=grad)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        traj = dyn.hamiltonian_flow(model, spec, z0, params)
    except dyn.FlowSingularityError as exc:
        if exc.partial is not None and len(exc.partial.times) > 0:
            _write_trajectory(args, exc.partial, {"failed_step": exc.step})
            print(f"wrote partial trajectory "
                  f"({len(exc.partial.times)} rows) to {args.out}",
                  file=sys.stderr)
        print(f"flow singularity: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    drift = dyn.invariant_drift(traj)
    _write_trajectory(args, traj, {"drift": drift})
    print(f"wrote {args.out} ({args.steps} steps, dt = {_fmt(args.dt)})")
    print("invariant drift: " + ", ".join(
        f"{k} = {_fmt(v)}" for k, v in drift.items()))
    return EXIT_OK


def cmd_bracket(args) -> int:
    params = _params_from_args(args)
    model = ModelId.from_name(args.model)
    z = _parse_floats(args.at, "--at")
    fgrad = oc.coordinate_gradient(model, args.f)
    ggrad = oc.coordinate_gradient(model, args.g)
    point = oc.orbit_point(model, z, params, **_parse_labels(args.label))
    value = oc.poisson_bracket(model, fgrad, ggrad, point, params)
    print(f"{{{args.f}, {args.g}}} = {_fmt(value)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aristotle-orbits",
        description="coadjoint orbits of the planar Aristotle group and "
                    "its extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--model", choices=MODEL_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.add_argument("--config", help="JSON config document")
    _add_param_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_orbit = sub.add_parser("orbit", help="inspect one dual point")
    p_orbit.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_orbit.add_argument("--xi", required=True,
                         help="comma separated dual coordinates")
    _add_param_flags(p_orbit)
    p_orbit.set_defaults(func=cmd_orbit)

    p_sim = sub.add_parser("simulate", help="integrate a flow")
    p_sim.add_argument("--model", choices=_SIM_CHOICES["model"])
    p_sim.add_argument("--flow", choices=_SIM_CHOICES["flow"])
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--steps", type=int)
    p_sim.add_argument("--out")
    p_sim.add_argument("--format", choices=_SIM_CHOICES["format"])
    p_sim.add_argument("--integrator", choices=_SIM_CHOICES["integrator"])
    p_sim.add_argument("--hamiltonian", help="kinetic, energy or canonical")
    p_sim.add_argument("--xi", help="initial dual point, comma separated")
    p_sim.add_argument("--point", help="initial chart point, comma separated")
    p_sim.add_argument("--label", action="append",
                       help="orbit label override, name=value")
    p_sim.add_argument("--config",
                       help="JSON document carrying any of the above")
    _add_param_flags(p_sim, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_br = sub.add_parser("bracket", help="evaluate a coordinate bracket")
    p_br.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_br.add_argument("--at", required=True,
                      help="chart point, comma separated")
    p_br.add_argument("--f", required=True)
    p_br.add_argument("--g", required=True)
    p_br.add_argument("--label", action="append",
                      help="orbit label override, name=value")
    _add_param_flags(p_br)
    p_br.set_defaults(func=cmd_bracket)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process.

    parse_args makes a new namespace per call and leaves the parser as it
    was, so repeated main calls in one process share it.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, gm.ModelMismatchError, oc.ChartDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # config files are read under UsageError, so this is an output file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (oc.SingularityError, dyn.FlowSingularityError,
            dyn.SolverConvergenceError, SeriesConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
