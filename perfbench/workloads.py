"""The three benchmark workloads: seeded inputs, one timed op, its check.

Each workload makes the inputs of op ``i`` from ``(seed, i)`` alone, with
the standard library's generator, so inputs do not depend on the program
or on numpy.  ``run`` is the timed op and calls only the package's public
API; ``check`` compares the op's output with a closed form restated here
and returns ``(ok, items, ref_err, message)``, where ``ref_err`` is the
op's largest deviation from that reference.

Importing this module imports numpy and the package, so the worker starts
its set-up clock before importing it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random

import numpy as np

from aristotle_orbits import cli
from aristotle_orbits import dynamics as dyn
from aristotle_orbits import orbit_chart as oc
from aristotle_orbits import verify as verify_mod
from aristotle_orbits.group_models import ModelId
from aristotle_orbits.lie_core import ModelParams


def _rng(workload: str, seed: int, op: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{op}")


class Verify:
    """``run_verify`` on all five models, report seed = workload seed + op."""

    name = "verify"
    item = "report rows"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.row_names: list[str] | None = None

    def inputs(self, op: int) -> int:
        return self.seed + op

    def run(self, report_seed: int):
        return verify_mod.run_verify(seed=report_seed)

    def check(self, report_seed: int, report):
        names = [c.name for c in report.checks]
        if self.row_names is None:
            self.row_names = names
        ref_err = max(c.measured for c in report.checks)
        if not report.all_passed:
            failed = [c.name for c in report.checks if c.status == "fail"]
            return False, len(names), ref_err, f"failed rows {failed}"
        if names != self.row_names:
            return False, len(names), ref_err, "row names differ from op 0"
        return True, len(names), ref_err, ""


# Hamiltonian flows: the README cyclotron (double model, kinetic energy,
# m = omega = r = 1) with both integrators, and the noncentral energy flow.
CYCLOTRON_DT = 1e-3
CYCLOTRON_STEPS = 6283
NONCENTRAL_DT = 1e-3
NONCENTRAL_STEPS = 2000
# Implicit midpoint advances the cyclotron phase by 2 atan(dt / 2) per step
# instead of dt, so after 6283 steps it lags by about 5.2e-7 rad; RK4 and
# the constant-velocity noncentral flow are exact to rounding and solver
# tolerance.
TOLERANCE = {"midpoint": 1e-5, "rk4": 1e-9, "noncentral": 1e-8}


def cyclotron_exact(p0, q0, t):
    """Closed-form kinetic flow on the double chart at m = omega = 1.

    dp/dt = -EPS0 p rotates p clockwise; q = q0 + EPS0 (R(-t) - 1) p0.
    """
    c, s = math.cos(t), math.sin(t)
    p = (c * p0[0] + s * p0[1], -s * p0[0] + c * p0[1])
    d = (p[0] - p0[0], p[1] - p0[1])
    return p, (q0[0] - d[1], q0[1] + d[0])


def _read_csv_tail(path: str) -> tuple[int, list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return len(lines) - 1, [float(v) for v in lines[-1].split(",")]


class Hamiltonian:
    """Three ``simulate`` commands through ``cli.main`` into a work dir."""

    name = "hamiltonian"
    item = "integrator steps"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = {k: os.path.join(workdir, f"{k}.csv")
                    for k in ("midpoint", "rk4", "noncentral")}

    def inputs(self, op: int) -> dict:
        rng = _rng(self.name, self.seed, op)
        a = rng.uniform(-math.pi, math.pi)
        p0 = (math.cos(a), math.sin(a))
        q0 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        nc = (rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi),
              rng.uniform(-1, 1), rng.uniform(-1, 1))
        cyclotron = ["simulate", "--model", "double", "--flow", "hamiltonian",
                     "--hamiltonian", "kinetic", "--dt", repr(CYCLOTRON_DT),
                     "--steps", str(CYCLOTRON_STEPS),
                     "--point=" + ",".join(map(repr, p0 + q0))]
        argvs = {
            "midpoint": cyclotron + ["--integrator", "implicit-midpoint",
                                     "--out", self.out["midpoint"]],
            "rk4": cyclotron + ["--integrator", "rk4",
                                "--out", self.out["rk4"]],
            "noncentral": [
                "simulate", "--model", "noncentral", "--flow", "hamiltonian",
                "--hamiltonian", "energy", "--integrator", "implicit-midpoint",
                "--dt", repr(NONCENTRAL_DT), "--steps", str(NONCENTRAL_STEPS),
                "--point=" + ",".join(map(repr, nc)),
                "--out", self.out["noncentral"]],
        }
        return {"p0": p0, "q0": q0, "nc": nc, "argv": argvs}

    def run(self, inp: dict) -> dict:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for key, argv in inp["argv"].items():
                codes[key] = cli.main(argv)
        return codes

    def check(self, inp: dict, codes: dict):
        items = 2 * CYCLOTRON_STEPS + NONCENTRAL_STEPS
        errs = {}
        for key, code in codes.items():
            if code != 0:
                return False, items, math.inf, f"{key}: exit code {code}"
            steps, dt = ((NONCENTRAL_STEPS, NONCENTRAL_DT)
                         if key == "noncentral"
                         else (CYCLOTRON_STEPS, CYCLOTRON_DT))
            rows, last = _read_csv_tail(self.out[key])
            if rows != steps + 1:
                return False, items, math.inf, f"{key}: {rows} csv rows"
            t = steps * dt
            if key == "noncentral":
                # dp/dt = f with f = (cos phi_f, sin phi_f) at the default
                # orbit label f = 1; j and phi_f stay put; q = -p2 / (m omega)
                j, phi, p, q = inp["nc"]
                want = (j, phi, p + math.cos(phi) * t, q - math.sin(phi) * t)
            else:
                p, q = cyclotron_exact(inp["p0"], inp["q0"], t)
                want = p + q
            got = last[1:5]
            errs[key] = max(abs(last[0] - t),
                            math.dist(got, want))
        ref_err = max(errs.values())
        bad = [k for k, e in errs.items() if not e < TOLERANCE[k]]
        if bad:
            return False, items, ref_err, f"deviation above tolerance: {bad}"
        return True, items, ref_err, ""


# Group time flows: the exact coadjoint action of time translations,
# sampled on every chart model with fresh params and dual points per op.
GROUP_MODELS = (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE)
GROUP_DT = 1e-3
GROUP_STEPS = 4000
GROUP_TOL = 1e-9


def _charge(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)


def _group_dual(model: ModelId, rng: random.Random) -> list[float]:
    """Dual point with extension charges and force kept away from zero."""
    xi = [rng.uniform(-1, 1) for _ in range(4)]  # j, p1, p2, E
    if model is ModelId.CENTRAL1:
        return xi + [_charge(rng)]  # l
    if model is ModelId.CENTRAL2:
        return xi + [rng.uniform(-1, 1), _charge(rng)]  # l, h
    a = rng.uniform(-math.pi, math.pi)
    f = rng.uniform(0.3, 1.0)
    xi += [f * math.cos(a), f * math.sin(a), _charge(rng)]  # f1, f2, h
    if model is ModelId.DOUBLE:
        xi.append(_charge(rng))  # k
    return xi


def group_flow_exact(model: ModelId, xi, t: np.ndarray,
                     params: ModelParams) -> np.ndarray:
    """Chart coordinates of the analytic time flow of verify's time checks.

    central1 is frozen, central2 advances l by h omega t, noncentral and
    double push p by f t; chart maps as documented in orbit_chart.
    """
    mw = params.m * params.omega
    j, p1, p2, E = xi[:4]
    one = np.ones_like(t)
    if model is ModelId.CENTRAL1:
        cols = (p1 * one, -p2 / mw * one)
    elif model is ModelId.CENTRAL2:
        l, h = xi[4], xi[5]
        cols = (p1 * one, -p2 / mw * one, l + h * params.omega * t,
                -E / (h * params.omega) * one)
    elif model is ModelId.NONCENTRAL:
        f1, f2 = xi[4], xi[5]
        cols = (j * one, math.atan2(f2, f1) * one, p1 + f1 * t,
                -(p2 + f2 * t) / mw)
    else:
        f1, f2, k = xi[4], xi[5], xi[7]
        cols = (p1 + f1 * t, p2 + f2 * t, -f1 / k * one, -f2 / k * one)
    return np.stack(cols, axis=1)


class GroupFlow:
    """``hamiltonian_flow`` group time flows on the four chart models."""

    name = "group-flow"
    item = "trajectory samples"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.spec = dyn.FlowSpec(kind="group-time-flow", dt=GROUP_DT,
                                 nsteps=GROUP_STEPS)
        self.times = GROUP_DT * np.arange(GROUP_STEPS + 1)

    def inputs(self, op: int) -> tuple:
        rng = _rng(self.name, self.seed, op)
        params = ModelParams(m=rng.uniform(0.5, 2.0),
                             omega=rng.uniform(0.5, 2.0),
                             r=rng.uniform(0.5, 2.0))
        return params, [(m, _group_dual(m, rng)) for m in GROUP_MODELS]

    def run(self, inp: tuple) -> list:
        params, duals = inp
        trajs = []
        for model, xi in duals:
            z0 = oc.chart_from_dual(model, np.array(xi), params)
            trajs.append(dyn.hamiltonian_flow(model, self.spec, z0, params))
        return trajs

    def check(self, inp: tuple, trajs: list):
        params, duals = inp
        items = sum(len(tr.times) for tr in trajs)
        ref_err = 0.0
        for (model, xi), tr in zip(duals, trajs):
            if len(tr.times) != GROUP_STEPS + 1:
                return False, items, math.inf, f"{model.value}: length"
            want = group_flow_exact(model, xi, self.times, params)
            dev = np.abs(tr.coords - want) / (1.0 + np.abs(want))
            dev = max(float(dev.max()),
                      float(np.abs(tr.times - self.times).max()))
            ref_err = max(ref_err, dev)
        if not ref_err < GROUP_TOL:
            return False, items, ref_err, "deviation above tolerance"
        return True, items, ref_err, ""


WORKLOADS = {w.name: w for w in (Verify, Hamiltonian, GroupFlow)}
