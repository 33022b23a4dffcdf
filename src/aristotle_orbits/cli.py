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
import json
import math
import sys

import numpy as np

from .lie_core import (
    ModelParams,
    SeriesConvergenceError,
    kirillov_matrix,
)
from . import group_models as gm
from . import orbit_chart as oc
from . import dynamics as dyn
from . import verify as verify_mod
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
    rows = []
    for row in np.atleast_2d(m):
        rows.append("[" + ", ".join(_fmt(v) for v in row) + "]")
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
    """value as a float if it is a finite number (a bool is not one)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
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


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config document must be a JSON object")
    return cfg


def _config_seed(cfg: dict, default: int) -> int:
    seed = cfg.get("seed", default)
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
    cfg = _load_config(args.config)
    params = _params_from_args(args)
    seed = _config_seed(cfg, args.seed)
    models = _config_models(cfg)
    if args.model != "all":
        models = [ModelId.from_name(args.model)]
    corruption = _config_corruption(cfg)
    report = verify_mod.run_verify(models=models, seed=seed, params=params,
                                   corruption=corruption)
    print(report.table())
    print()
    print(f"convention notes: {len(report.convention_notes)} "
          f"(see JSON report for the measured differences)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
    print()
    print("RESULT:", "PASS" if report.all_passed else "FAIL")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def cmd_orbit(args) -> int:
    params = _params_from_args(args)
    model = ModelId.from_name(args.model)
    if model is ModelId.BASE:
        raise UsageError("the base model has no orbit chart; choose one of "
                         "central1, central2, noncentral, double")
    xi = _parse_floats(args.xi, "--xi")
    if xi.size != gm.dim(model):
        raise UsageError(f"{model.value} expects {gm.dim(model)} dual "
                         f"coordinates {gm.DUAL_LABELS[model]}, got {xi.size}")
    tensor = gm.structure_tensor(model, params)
    point = oc.chart_from_dual(model, xi, params)
    print(f"model: {model.value}")
    print(f"dual labels: {', '.join(gm.DUAL_LABELS[model])}")
    print("kirillov matrix:")
    print(_fmt_matrix(kirillov_matrix(tensor, xi)))
    print(f"restricted form (directions {', '.join(oc.OMEGA_BASIS[model])}):")
    print(_fmt_matrix(oc.omega_matrix(model, point, params)))
    print(f"chart poisson tensor (coordinates "
          f"{', '.join(oc.CHART_COORDS[model])}):")
    print(_fmt_matrix(oc.poisson_tensor(model, point, params)))
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
        if xi.size != gm.dim(model):
            raise UsageError(f"{model.value} expects {gm.dim(model)} dual "
                             "coordinates")
        if labels:
            raise UsageError("--label only applies with --point")
        return oc.chart_from_dual(model, xi, params)
    if args.point:
        z = _parse_floats(args.point, "--point")
        if z.size != len(oc.CHART_COORDS[model]):
            raise UsageError(f"{model.value} chart expects "
                             f"{len(oc.CHART_COORDS[model])} coordinates "
                             f"{oc.CHART_COORDS[model]}")
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
        grad = oc.canonical_energy_gradient(params)

        def ham(z):
            return oc.canonicalize_noncentral(
                oc.OrbitPoint(model, z, point.labels), params)[..., 0]
        return ham, grad
    raise UsageError(f"unknown hamiltonian {name!r}; choose kinetic, "
                     "energy or canonical")


def _trajectory_header(traj: dyn.Trajectory) -> list[str]:
    return (["t"] + list(oc.CHART_COORDS[traj.model])
            + list(traj.casimir_names))


def _trajectory_rows(traj: dyn.Trajectory) -> tuple[list[str], list[list[float]]]:
    """Column names and rows (t, chart coordinates, Casimirs) of traj.

    Adding 0.0 normalizes negative zero as _fmt does, so repr of each row
    value is its _fmt string.
    """
    table = np.column_stack((traj.times, traj.coords,
                             traj.casimir_series)) + 0.0
    return _trajectory_header(traj), table.tolist()


def write_trajectory_csv(path: str, traj: dyn.Trajectory) -> None:
    """Write the rows of _trajectory_rows as CSV, with the same strings.

    Values are formatted a column at a time.  When every Casimir row
    equals the first, as on Hamiltonian flows, that block is formatted
    once and ends every line.
    """
    series = traj.casimir_series
    constant = len(series) > 0 and bool((series == series[0]).all())
    table = np.column_stack((traj.times, traj.coords)
                            + (() if constant else (series,))) + 0.0
    end = "\n"
    if constant:
        end = "".join("," + repr(v) for v in (series[0] + 0.0).tolist()) + end
    columns = (map(repr, col) for col in table.T.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_trajectory_header(traj)) + "\n")
        fh.writelines(",".join(row) + end for row in zip(*columns))


def read_trajectory_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read back a trajectory file; values round-trip bit for bit."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(data)


_SIM_DEFAULTS = {
    "flow": "group", "dt": 1e-3, "steps": 10_000, "format": "csv",
    "integrator": "implicit-midpoint", "hamiltonian": "kinetic",
    "m": 1.0, "omega": 1.0, "r": 1.0,
    "model": None, "out": None, "xi": None, "point": None, "label": None,
}


def _merge_config(args, cfg: dict) -> None:
    """Fill unset simulate flags from the config document, in place.

    Flags beat the document; the document beats the defaults.  A run is
    therefore fully describable by one JSON file.
    """
    unknown = set(cfg) - set(_SIM_DEFAULTS)
    if unknown:
        raise UsageError(f"unknown config keys {sorted(unknown)}")
    for key, default in _SIM_DEFAULTS.items():
        if getattr(args, key) is None:
            value = cfg.get(key, default)
            if key == "label" and value is not None and not isinstance(value, list):
                raise UsageError("config key 'label' must be a list of "
                                 "name=value strings")
            setattr(args, key, value)


def cmd_simulate(args) -> int:
    _merge_config(args, _load_config(args.config))
    if args.model is None:
        raise UsageError("no model selected (flag --model or config key)")
    if args.out is None:
        raise UsageError("no output path (flag --out or config key)")
    params = _params_from_args(args)
    model = ModelId.from_name(args.model)
    if model is ModelId.BASE:
        raise UsageError("the base model has no orbit chart to simulate on")
    if isinstance(args.steps, bool) or not isinstance(args.steps, int):
        raise UsageError(f"steps must be an integer, got {args.steps!r}")
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    args.dt = _finite_number(args.dt, "dt")
    if args.dt <= 0:
        raise UsageError("--dt must be positive")
    z0 = _initial_point(model, args, params)
    if args.flow == "group":
        spec = dyn.FlowSpec(kind="group-time-flow", dt=args.dt,
                            nsteps=args.steps)
    elif args.flow == "hamiltonian":
        ham, grad = _named_hamiltonian(args.hamiltonian, model, z0, params)
        spec = dyn.FlowSpec(kind="hamiltonian", dt=args.dt, nsteps=args.steps,
                            integrator=args.integrator, hamiltonian=ham,
                            gradient=grad)
    else:
        raise UsageError(f"unknown flow {args.flow!r}; choose group or "
                         "hamiltonian")
    try:
        traj = dyn.hamiltonian_flow(model, spec, z0, params)
    except dyn.FlowSingularityError as exc:
        if exc.partial is not None and len(exc.partial.times) > 0:
            write_trajectory_csv(args.out, exc.partial)
            print(f"wrote partial trajectory "
                  f"({len(exc.partial.times)} rows) to {args.out}",
                  file=sys.stderr)
        print(f"flow singularity: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    drift = dyn.invariant_drift(traj)
    if args.format == "csv":
        write_trajectory_csv(args.out, traj)
    else:
        header, rows = _trajectory_rows(traj)
        doc = {
            "model": model.value,
            "flow": args.flow,
            "dt": args.dt,
            "steps": args.steps,
            "columns": header,
            "rows": rows,
            "drift": drift,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(f"wrote {args.out} ({args.steps} steps, dt = {_fmt(args.dt)})")
    print("invariant drift: " + ", ".join(
        f"{k} = {_fmt(v)}" for k, v in drift.items()))
    return EXIT_OK


def cmd_bracket(args) -> int:
    params = _params_from_args(args)
    model = ModelId.from_name(args.model)
    if model is ModelId.BASE:
        raise UsageError("the base model has no orbit chart")
    z = _parse_floats(args.at, "--at")
    names = oc.CHART_COORDS[model]
    if z.size != len(names):
        raise UsageError(f"{model.value} chart expects {len(names)} "
                         f"coordinates {names}")
    for coord in (args.f, args.g):
        if coord not in names:
            raise UsageError(f"{coord!r} is not a chart coordinate of "
                             f"{model.value}; choose from {names}")
    point = oc.orbit_point(model, z, params, **_parse_labels(args.label))
    value = oc.poisson_bracket(
        model,
        oc.coordinate_gradient(model, args.f),
        oc.coordinate_gradient(model, args.g),
        point, params)
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
    p_verify.add_argument("--model", default="all",
                          choices=MODEL_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=0)
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
    p_sim.add_argument("--model", choices=MODEL_NAMES)
    p_sim.add_argument("--flow", choices=("group", "hamiltonian"))
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--steps", type=int)
    p_sim.add_argument("--out")
    p_sim.add_argument("--format", choices=("csv", "json"))
    p_sim.add_argument("--integrator", choices=("rk4", "implicit-midpoint"))
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
