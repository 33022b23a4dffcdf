"""Property checks behind the verify command.

Each check appends a row (name, status, measured defect, tolerance).  The
process exit status is nonzero exactly when some row fails.  A second
section of the report collects convention notes: terms whose sign or
factor differs between the implementation (pinned to the coadjoint
exponential oracle) and alternate forms in circulation.  Notes are
informational and never fail the run, but each one re-measures the
disagreement so the report carries data, not prose alone.

All sampling is driven by one seeded generator, so a fixed seed gives a
byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie_core import (
    ModelParams,
    StructureTensor,
    bracket,
    exp_coadjoint,
    jacobi_defect,
    kirillov_matrix,
    rotation,
    cross2,
    eps_vec,
)
from . import group_models as gm
from . import orbit_chart as oc
from . import dynamics as dyn
from .group_models import ModelId

CHART_MODELS = (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE)
ALL_MODELS = (ModelId.BASE,) + CHART_MODELS


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "info"
    measured: float
    tolerance: float | None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "note": self.note,
        }


@dataclass
class Report:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    convention_notes: list[dict] = field(default_factory=list)

    def add(self, name: str, measured: float, tolerance: float,
            note: str = "") -> None:
        status = "pass" if measured < tolerance else "fail"
        self.checks.append(CheckResult(name, status, float(measured),
                                       tolerance, note))

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
            "convention_notes": self.convention_notes,
        }

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks) + 2
        lines = []
        for c in self.checks:
            tol = "" if c.tolerance is None else f" (tol {c.tolerance:.0e})"
            lines.append(f"{c.name:<{width}} {c.status.upper():<5} "
                         f"measured {c.measured:.3e}{tol}")
        return "\n".join(lines)


def _max_abs(a, b) -> float:
    """Largest entry of |a - b| over every slot and every batch entry."""
    return float(np.max(np.abs(a - b)))


def check_structure(report: Report, params: ModelParams, models,
                    corruption: dict | None = None) -> None:
    for model in models:
        tensor = gm.structure_tensor(model, params)
        if corruption and corruption.get("model") == model.value:
            c = tensor.c.copy()
            ia = tensor.index(corruption["a"])
            ib = tensor.index(corruption["b"])
            io = tensor.index(corruption["out"])
            delta = float(corruption.get("delta", 1.0))
            c[ia, ib, io] += delta
            c[ib, ia, io] -= delta
            tensor = StructureTensor(tensor.labels, c)
        anti = float(np.max(np.abs(tensor.c + tensor.c.transpose(1, 0, 2))))
        report.add(f"{model.value}: antisymmetry", anti, 1e-15)
        report.add(f"{model.value}: jacobi identity", jacobi_defect(tensor),
                   1e-12)


def check_group_axioms(report: Report, params: ModelParams, models,
                       rng: np.random.Generator, ntriples: int = 1000) -> None:
    for model in models:
        e = gm.identity_element(model)
        g1, g2, g3 = gm.sample_element(model, rng, (3, ntriples))
        left = gm.multiply(model, gm.multiply(model, g1, g2, params), g3,
                           params)
        right = gm.multiply(model, g1, gm.multiply(model, g2, g3, params),
                            params)
        report.add(f"{model.value}: associativity", _max_abs(left, right),
                   1e-12)
        worst_id = max(_max_abs(gm.multiply(model, g1, e, params), g1),
                       _max_abs(gm.multiply(model, e, g1, params), g1))
        report.add(f"{model.value}: identity element", worst_id, 1e-12)

        g = gm.sample_element(model, rng, 100)
        ginv = gm.inverse(model, g, params)
        worst_inv = max(_max_abs(gm.multiply(model, g, ginv, params), e),
                        _max_abs(gm.multiply(model, ginv, g, params), e))
        report.add(f"{model.value}: inverse round trip", worst_inv, 1e-12)


def check_cocycle(report: Report, params: ModelParams,
                  rng: np.random.Generator, ntriples: int = 1000) -> None:
    g1, g2, g3 = gm.sample_element(ModelId.BASE, rng, (3, ntriples))
    lhs = (gm.cocycle(g1, g2, params)
           + gm.cocycle(gm.multiply(ModelId.BASE, g1, g2, params), g3, params))
    rhs = (gm.cocycle(g2, g3, params)
           + gm.cocycle(g1, gm.multiply(ModelId.BASE, g2, g3, params), params))
    report.add("base: two-cocycle identity", _max_abs(lhs, rhs), 1e-12)


def check_adjoint_consistency(report: Report, params: ModelParams, models,
                              rng: np.random.Generator, n: int = 20) -> None:
    """Centered difference of Ad along exp(s y) against the bracket."""
    step = 1e-5
    for model in models:
        tensor = gm.structure_tensor(model, params)
        worst = 0.0
        for _ in range(n):
            y = rng.uniform(-1.0, 1.0, size=gm.dim(model))
            dx = rng.uniform(-1.0, 1.0, size=gm.dim(model))
            # parameters s y agree with exp(s y) to O(s^2), which the
            # centered difference cancels
            plus = gm.adjoint(model, step * y, dx, params)
            minus = gm.adjoint(model, -step * y, dx, params)
            fd = (plus - minus) / (2.0 * step)
            worst = max(worst, float(np.max(np.abs(fd - bracket(tensor, y, dx)))))
        report.add(f"{model.value}: adjoint/bracket consistency", worst, 1e-6)


def check_coadjoint_oracle(report: Report, params: ModelParams,
                           models) -> None:
    """Closed-form coadjoint against the exponential series, per subgroup."""
    svals = (-1.0, -0.37, 0.51, 1.0)
    for model in models:
        tensor = gm.structure_tensor(model, params)
        rng = np.random.default_rng(7)
        worst = 0.0
        for label in gm.ALGEBRA_LABELS[model]:
            y = gm.algebra_vector(model, **{label: 1.0})
            for s in svals:
                xi = rng.uniform(-1.0, 1.0, size=gm.dim(model))
                series = exp_coadjoint(tensor, s * y, xi, tol=1e-14)
                closed = gm.coadjoint(model,
                                      gm.one_param_element(model, label, s),
                                      xi, params)
                worst = max(worst, float(np.max(np.abs(series - closed))))
        report.add(f"{model.value}: coadjoint matches exponential oracle",
                   worst, 1e-6)


def check_homomorphism(report: Report, params: ModelParams, models,
                       rng: np.random.Generator, n: int = 200) -> None:
    for model in models:
        g1, g2 = gm.sample_element(model, rng, (2, n))
        xi = rng.uniform(-1.0, 1.0, size=(n, gm.dim(model)))
        joint = gm.coadjoint(model, gm.multiply(model, g1, g2, params), xi,
                             params)
        split = gm.coadjoint(model, g1, gm.coadjoint(model, g2, xi, params),
                             params)
        report.add(f"{model.value}: coadjoint homomorphism",
                   _max_abs(joint, split), 1e-10)


def check_casimirs(report: Report, params: ModelParams, models,
                   rng: np.random.Generator, n: int = 500) -> None:
    for model in models:
        if model not in CHART_MODELS:
            continue
        xis = np.array([gm.sample_dual(model, rng, nondegenerate=True)
                        for _ in range(n)])
        moved = gm.coadjoint(model, gm.sample_element(model, rng, n), xis,
                             params)
        report.add(f"{model.value}: casimir invariance",
                   _max_abs(_casimir_rows(model, moved, params),
                            _casimir_rows(model, xis, params)), 1e-9)

        worst_sv = 0.0
        tensor = gm.structure_tensor(model, params)
        for _ in range(10):
            xi = gm.sample_dual(model, rng, nondegenerate=True)
            k_mat = kirillov_matrix(tensor, xi)
            grads = _casimir_gradients(model, xi, params)
            prod = k_mat @ grads
            sv = np.linalg.svd(prod, compute_uv=False)
            worst_sv = max(worst_sv, float(sv.max()) if sv.size else 0.0)
        report.add(f"{model.value}: casimir gradients span kirillov kernel",
                   worst_sv, 1e-8)


def _casimir_rows(model: ModelId, xis: np.ndarray,
                  params: ModelParams) -> np.ndarray:
    """Casimir values of each dual point in a stack, one row per point."""
    return np.array([oc.casimirs(model, xi, params).values for xi in xis])


def _casimir_gradients(model: ModelId, xi: np.ndarray,
                       params: ModelParams) -> np.ndarray:
    """Columns of centered-difference gradients of every Casimir at xi."""
    names = oc.CASIMIR_NAMES[model]
    cols = np.zeros((gm.dim(model), len(names)))
    for i in range(gm.dim(model)):
        step = 1e-6 * (1.0 + abs(xi[i]))
        xp, xm = xi.copy(), xi.copy()
        xp[i] += step
        xm[i] -= step
        vp = np.array(oc.casimirs(model, xp, params).values)
        vm = np.array(oc.casimirs(model, xm, params).values)
        cols[i, :] = (vp - vm) / (2.0 * step)
    return cols


def _pushforward_poisson(model: ModelId, point: oc.OrbitPoint,
                         params: ModelParams) -> np.ndarray:
    """Chart Poisson matrix -Jac K Jac^T, rebuilt from the structure constants.

    The oracle for the closed form orbit_chart.poisson_tensor: the dual
    point is reconstructed from the chart point and its labels, K is the
    Kirillov matrix there and Jac the chart Jacobian.
    """
    xi = oc.dual_from_chart(point, params)
    k_full = kirillov_matrix(gm.structure_tensor(model, params), xi)
    jac = oc.chart_jacobian(model, xi, params)
    return -(jac @ k_full @ jac.T)


def _charge(rng: np.random.Generator) -> float:
    """A label of either sign with magnitude in [0.5, 2)."""
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))


def _sample_point(model: ModelId, rng: np.random.Generator,
                  params: ModelParams, any_orbit: bool = False
                  ) -> oc.OrbitPoint:
    """Chart point with coordinates in [-1, 1].

    The orbit is a default one (noncentral: force in [0.5, 1.5)) unless
    any_orbit is set; then the charge (l or h) and, on the double chart,
    the Hooke constant k are drawn by _charge as well.
    """
    z = rng.uniform(-1.0, 1.0, size=len(oc.CHART_COORDS[model]))
    labels = {}
    if model is ModelId.NONCENTRAL:
        labels["f"] = 0.5 + float(rng.uniform(0.0, 1.0))
    if any_orbit:
        labels["l" if model is ModelId.CENTRAL1 else "h"] = _charge(rng)
        if model is ModelId.DOUBLE:
            labels["k"] = _charge(rng)
    return oc.orbit_point(model, z, params, **labels)


def check_bracket_tables(report: Report, params: ModelParams, models,
                         rng: np.random.Generator, n: int = 100) -> None:
    """Closed-form chart Poisson tensor against its pushforward, any orbit."""
    for model in models:
        if model not in CHART_MODELS:
            continue
        worst = 0.0
        for _ in range(n):
            point = _sample_point(model, rng, params, any_orbit=True)
            pi = oc.poisson_tensor(model, point, params)
            worst = max(worst, float(np.max(np.abs(
                pi - _pushforward_poisson(model, point, params)))))
        report.add(f"{model.value}: chart bracket table", worst, 1e-12)

        worst_inv = 0.0
        for _ in range(10):
            point = _sample_point(model, rng, params, any_orbit=True)
            pi = oc.poisson_tensor(model, point, params)
            om = oc.omega_chart(model, point, params)
            worst_inv = max(worst_inv, float(np.max(np.abs(
                pi @ om - np.eye(pi.shape[0])))))
        report.add(f"{model.value}: poisson tensor inverts chart form",
                   worst_inv, 1e-10)


def _printed_omega(model: ModelId, point: oc.OrbitPoint,
                   params: ModelParams) -> np.ndarray:
    """The documented restricted-form matrices on default orbits."""
    mw = params.m_omega
    if model is ModelId.CENTRAL1:
        return np.array([[0.0, mw], [-mw, 0.0]])
    if model is ModelId.CENTRAL2:
        hw = point.casimirs.get("h") * params.omega
        m = np.zeros((4, 4))
        m[0, 1] = mw
        m[2, 3] = -hw
        return m - m.T
    if model is ModelId.DOUBLE:
        k = point.casimirs.get("k")
        m = np.zeros((4, 4))
        m[0, 1] = mw
        m[0, 2] = k
        m[1, 3] = k
        return m - m.T
    raise gm.ModelMismatchError(f"no documented restricted form for "
                                f"{model.value}")


def printed_noncentral_omega_inverse(point: oc.OrbitPoint,
                                     params: ModelParams) -> np.ndarray:
    """The documented inverse form with its 1/(m omega f sin phi) prefactor."""
    mw = params.m_omega
    _, phi_f, p, q = point.array()
    fmag = point.casimirs.get("f")
    p1, p2 = p, -mw * q
    fs = fmag * np.sin(phi_f)
    m = np.array([
        [0.0, -mw, 0.0, 0.0],
        [mw, 0.0, p1, p2],
        [0.0, -p1, 0.0, -fs],
        [0.0, -p2, fs, 0.0],
    ])
    return m / (mw * fs)


def check_restricted_forms(report: Report, params: ModelParams, models,
                           rng: np.random.Generator) -> None:
    for model in models:
        if model not in (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.DOUBLE):
            continue
        point = _sample_point(model, rng, params)
        om = oc.omega_matrix(model, point, params)
        diff = float(np.max(np.abs(om - _printed_omega(model, point, params))))
        report.add(f"{model.value}: restricted kirillov form", diff, 1e-12)
    if ModelId.NONCENTRAL in models:
        worst = 0.0
        for _ in range(10):
            point = _sample_point(ModelId.NONCENTRAL, rng, params)
            if abs(np.sin(point.coord("phi_f"))) < 1e-3:
                continue
            om = oc.omega_matrix(ModelId.NONCENTRAL, point, params)
            prod = om @ printed_noncentral_omega_inverse(point, params)
            worst = max(worst, float(np.max(np.abs(prod - np.eye(4)))))
        report.add("noncentral: restricted form inverts documented inverse",
                   worst, 1e-10)


def check_canonical_chart(report: Report, params: ModelParams, models,
                          rng: np.random.Generator, n: int = 100) -> None:
    if ModelId.NONCENTRAL not in models:
        return
    worst = 0.0
    grad_h = oc.canonical_energy_gradient(params)
    grad_tau = oc.gradient_fd(lambda z: z[1] / params.omega)
    for _ in range(n):
        point = _sample_point(ModelId.NONCENTRAL, rng, params)
        val = oc.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_tau, point,
                                 params)
        worst = max(worst, abs(val - 1.0))
    report.add("noncentral: canonical pair bracket {H, tau} = 1", worst, 1e-9)


#: Exact time flows per chart model: the report row and the constant
#: velocity of the dual point xi at frequency omega.
TIME_FLOW_ROWS = {
    # the whole dual point is frozen
    ModelId.CENTRAL1: ("central1: time flow is trivial",
                       lambda xi, w: np.zeros_like(xi)),
    # dl/dt = h omega, everything else frozen
    ModelId.CENTRAL2: ("central2: time flow advances l by h omega t",
                       lambda xi, w: gm.dual_vector(ModelId.CENTRAL2,
                                                    l=xi[5] * w)),
    # dp/dt = f; the angular sector and all casimirs are frozen
    ModelId.NONCENTRAL: ("noncentral: time flow pushes p by f t, rest frozen",
                         lambda xi, w: gm.dual_vector(ModelId.NONCENTRAL,
                                                      p1=xi[4], p2=xi[5])),
    # dp/dt = f = -k q with q frozen
    ModelId.DOUBLE: ("double: time flow obeys dp/dt = -k q, dq/dt = 0",
                     lambda xi, w: gm.dual_vector(ModelId.DOUBLE,
                                                  p1=xi[4], p2=xi[5])),
}


def check_time_flows(report: Report, params: ModelParams, models,
                     rng: np.random.Generator) -> None:
    for model, (name, velocity) in TIME_FLOW_ROWS.items():
        if model not in models:
            continue
        worst = 0.0
        for _ in range(20):
            xi = gm.sample_dual(model, rng, nondegenerate=True)
            t = float(rng.uniform(-2.0, 2.0))
            out = dyn.time_flow_exact(model, xi, t, params)
            expected = xi + velocity(xi, params.omega) * t
            worst = max(worst, _max_abs(out, expected))
        report.add(name, worst, 1e-12)

    chart_selected = [m for m in models if m in CHART_MODELS]
    if chart_selected:
        # exact flow composes additively in t
        worst = 0.0
        for model in chart_selected:
            for _ in range(10):
                xi = gm.sample_dual(model, rng, nondegenerate=True)
                t1 = float(rng.uniform(-1.0, 1.0))
                t2 = float(rng.uniform(-1.0, 1.0))
                a = dyn.time_flow_exact(model, xi, t1 + t2, params)
                b = dyn.time_flow_exact(
                    model, dyn.time_flow_exact(model, xi, t2, params), t1,
                    params)
                worst = max(worst, float(np.max(np.abs(a - b))))
        report.add("time flow group property", worst, 1e-12)


def collect_convention_notes(params: ModelParams) -> list[dict]:
    """Measure every known sign or factor variant against the implementation.

    Each entry records the implemented term, the alternate form, and the
    size of the disagreement at a fixed probe; oracle agreement restates
    that the implemented form matches the coadjoint exponential series.
    """
    notes = []
    r2 = params.r**2
    mw = params.m_omega

    g = gm.algebra_vector(ModelId.CENTRAL1, J=0.3, P1=0.7, P2=-0.4, H=0.5,
                          S=0.2)
    xi = gm.dual_vector(ModelId.CENTRAL1, j=0.3, p1=0.8, p2=-0.5, E=0.1,
                        l=params.l_sub)
    out = gm.coadjoint(ModelId.CENTRAL1, g, xi, params)
    xv, rp = g[1:3], rotation(g[0]) @ xi[1:3]
    alt_j = xi[0] + cross2(xv, rp) + 0.5 * mw * (xv @ xv)
    notes.append({
        "model": "central1",
        "term": "coadjoint angular momentum, quadratic translation term",
        "implemented": "-(l / (2 r^2)) |x|^2",
        "alternate_form": "+(m omega / 2) |x|^2",
        "difference_at_probe": abs(alt_j - out[0]),
        "oracle_agrees_with_implementation": True,
    })
    alt_p = rp - (xi[4] / r2) * eps_vec(xv)
    notes.append({
        "model": "central1",
        "term": "coadjoint momentum, translation coupling sign",
        "implemented": "+(l / r^2) eps_vec(x)",
        "alternate_form": "-(m omega) eps_vec(x)",
        "difference_at_probe": float(np.max(np.abs(alt_p - out[1:3]))),
        "oracle_agrees_with_implementation": True,
    })

    g2 = gm.algebra_vector(ModelId.CENTRAL2, J=0.2, P1=0.6, P2=0.3, H=0.7,
                           S=0.1)
    xi2 = gm.dual_vector(ModelId.CENTRAL2, j=0.2, p1=0.4, p2=0.9, E=0.3,
                         l=0.8, h=params.l_sub)
    out2 = gm.coadjoint(ModelId.CENTRAL2, g2, xi2, params)
    xv2, t2 = g2[1:3], g2[3]
    rp2 = rotation(g2[0]) @ xi2[1:3]
    l2, h2 = xi2[4], xi2[5]
    alt_j2 = (xi2[0] + cross2(xv2, rp2)
              - (l2 + h2 * params.omega * t2) / (2 * r2) * (xv2 @ xv2))
    notes.append({
        "model": "central2",
        "term": "coadjoint angular momentum, charge of the quadratic term",
        "implemented": "-(h / (2 r^2)) |x|^2",
        "alternate_form": "-((l + h omega t) / (2 r^2)) |x|^2",
        "difference_at_probe": abs(alt_j2 - out2[0]),
        "oracle_agrees_with_implementation": True,
    })
    alt_p2 = (rp2 + (l2 / r2) * eps_vec(xv2)
              + (h2 / r2) * params.omega * t2 * eps_vec(xv2))
    notes.append({
        "model": "central2",
        "term": "coadjoint momentum, translation charge",
        "implemented": "(h / r^2) eps_vec(x)",
        "alternate_form": "((l + h omega t) / r^2) eps_vec(x)",
        "difference_at_probe": float(np.max(np.abs(alt_p2 - out2[1:3]))),
        "oracle_agrees_with_implementation": True,
    })
    notes.append({
        "model": "central2",
        "term": "structure constants",
        "implemented": "[P1, P2] = N / r^2 with [S, H] = omega N",
        "alternate_form": "[P1, P2] = S / r^2 with [S, H] = omega N",
        "difference_at_probe": jacobi_defect(
            gm.defective_central2_tensor(params)),
        "oracle_agrees_with_implementation": True,
        "remark": "alternate form is not a Lie algebra; measured value is "
                  "its jacobi defect (omega / r^2)",
    })
    notes.append({
        "model": "central2",
        "term": "chart coordinate alpha",
        "implemented": "alpha = -E / (h omega)",
        "alternate_form": "alpha = +E / (h omega)",
        "difference_at_probe": 2.0 * abs(xi2[3] / (h2 * params.omega)),
        "oracle_agrees_with_implementation": True,
        "remark": "implemented sign keeps {l, alpha} = 1 and "
                  "alpha' = alpha + phi simultaneously",
    })

    g3 = gm.algebra_vector(ModelId.NONCENTRAL, J=-0.4, P1=0.5, P2=0.2, H=0.6,
                           F1=0.3, F2=-0.7)
    xi3 = gm.dual_vector(ModelId.NONCENTRAL, j=0.1, p1=0.7, p2=0.2, E=0.4,
                         f1=0.6, f2=0.45, h=params.l_sub)
    out3 = gm.coadjoint(ModelId.NONCENTRAL, g3, xi3, params)
    xv3, ev3 = g3[1:3], g3[4:6]
    rp3 = rotation(g3[0]) @ xi3[1:3]
    rf3 = rotation(g3[0]) @ xi3[4:6]
    h3 = xi3[6]
    alt_j3 = (xi3[0] + cross2(xv3, rp3) + cross2(ev3, rf3)
              - (h3 / r2) * (xv3 @ xv3))
    notes.append({
        "model": "noncentral",
        "term": "coadjoint angular momentum, factor and force coupling",
        "implemented": "-(h / (2 r^2)) |x|^2 and (eta + x t) x R f",
        "alternate_form": "-(h / r^2) |x|^2 and eta x R f",
        "difference_at_probe": abs(alt_j3 - out3[0]),
        "oracle_agrees_with_implementation": True,
    })
    notes.append({
        "model": "noncentral",
        "term": "time flow on the orbit chart",
        "implemented": "p(t) = p + f t with (j, phi_f) and all casimirs frozen",
        "alternate_form": "every chart coordinate frozen",
        "difference_at_probe": float(np.max(np.abs(
            dyn.time_flow_exact(ModelId.NONCENTRAL, xi3, 1.0, params) - xi3))),
        "oracle_agrees_with_implementation": True,
        "remark": "with [P_i, H] = F_i the momentum necessarily feels the "
                  "constant force; only the angular sector is frozen",
    })

    g4 = gm.algebra_vector(ModelId.DOUBLE, P1=0.4, P2=-0.3, F1=0.5, F2=0.6)
    xi4 = gm.dual_vector(ModelId.DOUBLE, j=0.3, p1=0.2, p2=-0.6, E=0.5,
                         f1=0.7, f2=0.1, h=params.l_sub, k=0.9)
    out4 = gm.coadjoint(ModelId.DOUBLE, g4, xi4, params)
    k4 = xi4[7]
    alt_j4 = out4[0] - k4 * cross2(g4[1:3], g4[4:6])
    notes.append({
        "model": "double",
        "term": "coadjoint angular momentum, mixed translation term",
        "implemented": "includes + k (x cross eta)",
        "alternate_form": "term absent",
        "difference_at_probe": abs(alt_j4 - out4[0]),
        "oracle_agrees_with_implementation": True,
        "remark": "required by the homomorphism property given "
                  "p' = p + k eta under force translations",
    })
    qv = -xi4[4:6] / k4
    pv = xi4[1:3]
    s_impl = xi4[0] + cross2(pv, qv) - xi4[6] * (qv @ qv) / (2 * r2)
    s_alt = xi4[0] - cross2(pv, qv) + xi4[6] * (qv @ qv) / (2 * r2)
    notes.append({
        "model": "double",
        "term": "invariant s, orientation of the non-angular part",
        "implemented": "s = j + p x q - (h / (2 r^2)) |q|^2",
        "alternate_form": "s = j - p x q + (h / (2 r^2)) |q|^2",
        "difference_at_probe": abs(s_impl - s_alt),
        "oracle_agrees_with_implementation": True,
        "remark": "the alternate orientation is not conserved by the "
                  "coadjoint action",
    })
    return notes


def run_verify(models: list[ModelId] | None = None, seed: int = 0,
               params: ModelParams = ModelParams(),
               corruption: dict | None = None) -> Report:
    """Run the full property suite and return the Report."""
    rng = np.random.default_rng(seed)
    report = Report(seed=seed)
    selected = tuple(models) if models is not None else ALL_MODELS
    if not selected:
        raise ValueError("no models selected")

    check_structure(report, params, selected, corruption)
    check_group_axioms(report, params, selected, rng)
    if ModelId.BASE in selected or ModelId.CENTRAL1 in selected:
        check_cocycle(report, params, rng)
    check_adjoint_consistency(report, params, selected, rng)
    check_coadjoint_oracle(report, params, selected)
    check_homomorphism(report, params, selected, rng)
    check_casimirs(report, params, selected, rng)
    check_bracket_tables(report, params, selected, rng)
    check_restricted_forms(report, params, selected, rng)
    check_canonical_chart(report, params, selected, rng)
    check_time_flows(report, params, selected, rng)

    report.convention_notes = collect_convention_notes(params)
    return report
