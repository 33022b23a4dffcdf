"""Property checks behind the verify command.

Each check appends a row (name, status, measured defect, tolerance).  The
process exit status is nonzero exactly when some row fails.  A second
section of the report collects convention notes: terms whose sign or
factor differs between the implementation and alternate forms in
circulation.  Notes are informational and never fail the run, but each
one is measured at a probe point: the disagreement of the two forms, and
two flags computed against the exponential series oracle, so a note whose
implementation drifts from the oracle reads false.

All sampling is driven by one seeded generator, so a fixed seed gives a
byte-identical report.  The group laws, coadjoint actions, Casimirs and
time flows broadcast over leading axes, so a check makes one call per
stage of a property: the two sides it compares go through that call
stacked, and one comparison gives the row's defect.

The oracle is lie_core's: check_coadjoint_oracle's series come from
exp_coadjoint, and the probes' factors exp(s_a coad(e_a)) from expm.  That
side depends on no seed, so it is memoized with functools.lru_cache per
(model, params): the series of check_coadjoint_oracle, and each chart
model's probe factors, dual point and reference.  A model's entries are
built by the first run in a process that needs them, whatever the
selection, and later runs share the same arrays, which are read-only so
that no caller can change a later run's reference.  What a law under test
returns (the probe elements, every coadjoint, casimirs and time flow) and
every comparison are computed on every run.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .lie_core import (
    DEFAULT_PARAMS,
    ModelParams,
    StructureTensor,
    _Record,
    bracket,
    coad_matrix,
    exp_coadjoint,
    expm,
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

CHART_MODELS = tuple(oc.CHARTS)
ALL_MODELS = (ModelId.BASE,) + CHART_MODELS

#: Random samples per model of the checks that draw them: element triples
#: (check_group_axioms, check_cocycle), direction pairs
#: (check_adjoint_consistency), element pairs (check_homomorphism), dual
#: points (check_casimirs) and chart points (check_bracket_tables,
#: check_canonical_chart).
N_TRIPLES = 1000
N_ADJOINT = 20
N_HOMOMORPHISM = 200
N_CASIMIRS = 500
N_POINTS = 100


class CheckResult(_Record):
    __slots__ = ("name", "status", "measured", "tolerance", "note")

    def __init__(self, name: str, status: str, measured: float,
                 tolerance: float, note: str = ""):
        # status is "pass" or "fail"; Report.add writes every row
        self._set(name=name, status=status, measured=measured,
                  tolerance=tolerance, note=note)

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if type(other) is not CheckResult:
            return NotImplemented
        return self.as_dict() == other.as_dict()


class Report:
    __slots__ = ("seed", "checks", "convention_notes")

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = []
        self.convention_notes = []

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
        return "\n".join(f"{c.name:<{width}} {c.status.upper():<5} "
                         f"measured {c.measured:.3e} (tol {c.tolerance:.0e})"
                         for c in self.checks)


def _max_abs(a, b) -> float:
    """Largest entry of |a - b| over every slot and every batch entry."""
    return float(np.abs(a - b).max())


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
        anti = float(np.abs(tensor.c + tensor.c.transpose(1, 0, 2)).max())
        report.add(f"{model.value}: antisymmetry", anti, 1e-15)
        report.add(f"{model.value}: jacobi identity", jacobi_defect(tensor),
                   1e-12)


def check_group_axioms(report: Report, params: ModelParams, models,
                       rng: np.random.Generator) -> None:
    for model in models:
        e = gm.identity_element(model)
        g1, _, g3 = gs = gm.sample_element(model, rng, (3, N_TRIPLES))
        g12, g23 = gm.multiply(model, gs[:2], gs[1:], params)
        # (g1 g2) g3 and g1 (g2 g3)
        sides = gm.multiply(model, np.array((g12, g1)), np.array((g3, g23)),
                            params)
        report.add(f"{model.value}: associativity", _max_abs(*sides), 1e-12)
        # g1 e and e g1
        pair = np.empty((2, *g1.shape))
        pair[0], pair[1] = g1, e
        sides = gm.multiply(model, pair, pair[::-1], params)
        report.add(f"{model.value}: identity element", _max_abs(sides, g1),
                   1e-12)

        g = gm.sample_element(model, rng, 100)
        # g g^-1 and g^-1 g
        pair = np.array((g, gm.inverse(model, g, params)))
        sides = gm.multiply(model, pair, pair[::-1], params)
        report.add(f"{model.value}: inverse round trip", _max_abs(sides, e),
                   1e-12)


def check_cocycle(report: Report, params: ModelParams,
                  rng: np.random.Generator) -> None:
    g1, g2, g3 = gs = gm.sample_element(ModelId.BASE, rng, (3, N_TRIPLES))
    g12, g23 = gm.multiply(ModelId.BASE, gs[:2], gs[1:], params)
    # c(g1, g2) + c(g1 g2, g3) against c(g2, g3) + c(g1, g2 g3)
    c = gm.cocycle(np.array((g1, g2, g12, g1)), np.array((g2, g3, g3, g23)),
                   params)
    report.add("base: two-cocycle identity", _max_abs(*(c[:2] + c[2:])), 1e-12)


def check_adjoint_consistency(report: Report, params: ModelParams, models,
                              rng: np.random.Generator) -> None:
    """Centered difference of Ad along exp(s y) against the bracket."""
    step = 1e-5
    for model in models:
        tensor = gm.structure_tensor(model, params)
        # sample i draws y then dx, as single draws would
        size = (N_ADJOINT, 2, gm.dim(model))
        y, dx = np.moveaxis(rng.uniform(-1.0, 1.0, size=size), 1, 0)
        # parameters s y agree with exp(s y) to O(s^2), which the
        # centered difference cancels; dx is stacked to the parameters'
        # shape, so the law skips numpy's Python-level broadcast
        plus, minus = gm.adjoint(model, np.array((step * y, -step * y)),
                                 np.array((dx, dx)), params)
        fd = (plus - minus) / (2.0 * step)
        report.add(f"{model.value}: adjoint/bracket consistency",
                   _max_abs(fd, bracket(tensor, y, dx)), 1e-6)


def check_coadjoint_oracle(report: Report, params: ModelParams,
                           models) -> None:
    """Closed-form coadjoint against the exponential series, per subgroup.

    The series side comes from _oracle_series, memoized per (model,
    params); the closed form is called on every run.
    """
    for model in models:
        x, xi, series = _oracle_series(model, params)
        report.add(f"{model.value}: coadjoint matches exponential oracle",
                   _max_abs(series, gm.coadjoint(model, x, xi, params)), 1e-6)


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, each made read-only: a memoized array is shared by every
    later run."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _oracle_series(model: ModelId, params: ModelParams) -> tuple:
    """The model's parameters x, dual points xi and series, read-only.

    x[a, i] = svals[i] e_a are the parameters of exp(svals[i] e_a), xi the
    seed-7 draws (n, 4, n), and the series exp_coadjoint(tensor, x, xi).
    None depends on the seed.
    """
    svals = np.array((-1.0, -0.37, 0.51, 1.0))
    x = svals[:, None] * np.eye(gm.dim(model))[:, None, :]
    xi = np.random.default_rng(7).uniform(-1.0, 1.0, size=x.shape)
    return _read_only(x, xi, exp_coadjoint(gm.structure_tensor(model, params),
                                           x, xi))


def check_homomorphism(report: Report, params: ModelParams, models,
                       rng: np.random.Generator) -> None:
    for model in models:
        g1, g2 = gm.sample_element(model, rng, (2, N_HOMOMORPHISM))
        xi = rng.uniform(-1.0, 1.0, size=(N_HOMOMORPHISM, gm.dim(model)))
        # joint Ad*_{g1 g2} xi and split Ad*_{g1} Ad*_{g2} xi
        firsts = np.array((gm.multiply(model, g1, g2, params), g1))
        seconds = np.array((xi, gm.coadjoint(model, g2, xi, params)))
        sides = gm.coadjoint(model, firsts, seconds, params)
        report.add(f"{model.value}: coadjoint homomorphism",
                   _max_abs(*sides), 1e-10)


def check_casimirs(report: Report, params: ModelParams, models,
                   rng: np.random.Generator) -> None:
    for model in models:
        if model not in CHART_MODELS:
            continue
        xis = gm.sample_dual(model, rng, nondegenerate=True, size=N_CASIMIRS)
        g = gm.sample_element(model, rng, N_CASIMIRS)
        moved = gm.coadjoint(model, g, xis, params)
        values = oc.casimirs(model, np.array((moved, xis)), params)
        report.add(f"{model.value}: casimir invariance", _max_abs(*values),
                   1e-9)

        xi = gm.sample_dual(model, rng, nondegenerate=True, size=10)
        prod = (kirillov_matrix(gm.structure_tensor(model, params), xi)
                @ _casimir_gradients(model, xi, params))
        sv = np.linalg.svd(prod, compute_uv=False)
        report.add(f"{model.value}: casimir gradients span kirillov kernel",
                   float(sv.max()), 1e-8)


def _casimir_gradients(model: ModelId, xi: np.ndarray,
                       params: ModelParams) -> np.ndarray:
    """Centered-difference gradients (..., n, c) of every Casimir at xi.

    xi is (..., n); column k holds Casimir k's gradient.  Row i
    differentiates along dual coordinate i with the step
    1e-6 * (1 + |xi_i|); the 2n shifted points of every sample go through
    one casimirs call.
    """
    n = xi.shape[-1]
    steps = 1e-6 * (1.0 + np.abs(xi))
    shifts = steps[..., None] * np.eye(n)
    xi = xi[..., None, :]
    vals = oc.casimirs(model, np.concatenate((xi + shifts, xi - shifts),
                                             axis=-2), params)
    return (vals[..., :n, :] - vals[..., n:, :]) / (2.0 * steps[..., None])


def _pushforward_poisson(model: ModelId, point: oc.OrbitPoint,
                         params: ModelParams) -> np.ndarray:
    """Chart Poisson matrices -Jac K Jac^T from the structure constants.

    The oracle for the closed form orbit_chart.poisson_tensor: the dual
    points are reconstructed from the chart points and their labels, K is
    the Kirillov matrix there and Jac the chart Jacobian.  A stacked point
    gives the stacked matrices (..., d, d).
    """
    xi = oc.dual_from_chart(point, params)
    k_full = kirillov_matrix(gm.structure_tensor(model, params), xi)
    jac = oc.chart_jacobian(model, xi, params)
    return -(jac @ k_full @ np.swapaxes(jac, -1, -2))


def _charge(sign_draw, size_draw):
    """Labels of either sign with magnitude in [0.5, 2) from draws in [0, 1)."""
    return np.where(sign_draw < 0.5, -1.0, 1.0) * (0.5 + 1.5 * size_draw)


def _sample_point(model: ModelId, rng: np.random.Generator,
                  params: ModelParams, any_orbit: bool = False,
                  size: int | None = None) -> oc.OrbitPoint:
    """Chart point with coordinates in [-1, 1], or size of them stacked.

    The orbit is a default one (noncentral: force in [0.5, 1.5)) unless
    any_orbit is set; then the charge (l or h) and, on the double chart,
    the Hooke constant k are drawn by _charge as well.  Each point takes
    one row of uniform draws, in the order coordinates, force, charges, so
    a stack of n points equals n single draws from the same generator
    state.
    """
    d = len(oc.CHART_COORDS[model])
    keys = oc._LABEL_KEYS[model]
    names = [key for key in keys if key == "f"]
    if any_orbit:
        names += [key for key in keys if key in ("l", "h", "k")]
    ndraws = d + sum(1 if name == "f" else 2 for name in names)
    u = rng.random(size=(ndraws,) if size is None else (size, ndraws))
    # Generator.uniform(low, high) is low + (high - low) * random()
    z = -1.0 + 2.0 * u[..., :d]
    draws = iter(gm._slot_first(u[..., d:]))
    labels = {}
    for name in names:
        labels[name] = (0.5 + next(draws) if name == "f"
                        else _charge(next(draws), next(draws)))
    return oc.orbit_point(model, z, params, **labels)


def check_bracket_tables(report: Report, params: ModelParams, models,
                         rng: np.random.Generator) -> None:
    """Closed-form chart Poisson tensor against its pushforward, any orbit."""
    for model in models:
        if model not in CHART_MODELS:
            continue
        points = _sample_point(model, rng, params, any_orbit=True,
                               size=N_POINTS)
        report.add(f"{model.value}: chart bracket table",
                   _max_abs(oc.poisson_tensor(model, points, params),
                            _pushforward_poisson(model, points, params)),
                   1e-12)

        # the inverse of the chart Poisson tensor, pulled back along the
        # orbit directions A = Jac K[:, basis], is the restricted form
        tensor = gm.structure_tensor(model, params)
        basis = [tensor.index(label) for label in oc.OMEGA_BASIS[model]]
        points = _sample_point(model, rng, params, any_orbit=True, size=10)
        xi = oc.dual_from_chart(points, params)
        a = (oc.chart_jacobian(model, xi, params)
             @ kirillov_matrix(tensor, xi)[..., basis])
        pulled = (np.swapaxes(a, -1, -2)
                  @ oc.omega_chart(model, points, params) @ a)
        report.add(f"{model.value}: poisson tensor inverts chart form",
                   _max_abs(pulled, oc.omega_matrix(model, points, params)),
                   1e-10)


def printed_noncentral_omega_inverse(point: oc.OrbitPoint,
                                     params: ModelParams) -> np.ndarray:
    """The documented inverse form with its 1/(m omega f sin phi) prefactor.

    A stacked point gives the stacked matrices (..., 4, 4).
    """
    mw = params.m_omega
    _, phi_f, p, q = gm._slot_first(np.asarray(point.coords))
    fmag = point.labels[..., 1]
    p1, p2 = p, -mw * q
    fs = fmag * np.sin(phi_f)
    m = oc._antisymmetric({(0, 1): -mw, (1, 2): p1, (1, 3): p2, (2, 3): -fs},
                          np.shape(fs) + (4, 4))
    return m / (mw * fs)[..., None, None]


def check_restricted_forms(report: Report, params: ModelParams, models,
                           rng: np.random.Generator) -> None:
    for model in models:
        if model not in PRINTED_OMEGA:
            continue
        point = _sample_point(model, rng, params)
        om = oc.omega_matrix(model, point, params)
        printed = oc._antisymmetric(PRINTED_OMEGA[model](point.labels, params),
                                    om.shape)
        report.add(f"{model.value}: restricted kirillov form",
                   _max_abs(om, printed), 1e-12)
    if ModelId.NONCENTRAL in models:
        points = _sample_point(ModelId.NONCENTRAL, rng, params, size=10)
        keep = np.abs(np.sin(points.coords[:, 1])) >= 1e-3  # phi_f
        points = oc.OrbitPoint(ModelId.NONCENTRAL, points.coords[keep],
                               points.labels[keep])
        om = oc.omega_matrix(ModelId.NONCENTRAL, points, params)
        prod = om @ printed_noncentral_omega_inverse(points, params)
        report.add("noncentral: restricted form inverts documented inverse",
                   _max_abs(prod, np.eye(4)), 1e-10)


def check_canonical_chart(report: Report, params: ModelParams, models,
                          rng: np.random.Generator) -> None:
    if ModelId.NONCENTRAL not in models:
        return
    _, grad_h = dyn.canonical_hamiltonian(params)
    grad_tau = oc.gradient_fd(lambda z: z[..., 1] / params.omega)
    points = _sample_point(ModelId.NONCENTRAL, rng, params, size=N_POINTS)
    vals = oc.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_tau, points,
                              params)
    report.add("noncentral: canonical pair bracket {H, tau} = 1",
               _max_abs(vals, 1.0), 1e-9)


#: The documented restricted-form matrices on default orbits, per chart
#: model that has one: their entries above the diagonal at one point's
#: labels.
PRINTED_OMEGA = {
    ModelId.CENTRAL1: lambda labels, params: {(0, 1): params.m_omega},
    # labels (h, s)
    ModelId.CENTRAL2: lambda labels, params: {
        (0, 1): params.m_omega, (2, 3): -(labels[0] * params.omega)},
    # labels (h, k, s, U)
    ModelId.DOUBLE: lambda labels, params: {
        (0, 1): params.m_omega, (0, 2): labels[1], (1, 3): labels[1]},
}

#: Exact time flows per chart model: the report row and the constant
#: velocity of the dual points xi (..., n) at frequency omega.
TIME_FLOW_ROWS = {
    # the whole dual point is frozen
    ModelId.CENTRAL1: ("central1: time flow is trivial",
                       lambda xi, w: np.zeros_like(xi)),
    # dl/dt = h omega, everything else frozen
    ModelId.CENTRAL2: ("central2: time flow advances l by h omega t",
                       lambda xi, w: gm.dual_vector(ModelId.CENTRAL2,
                                                    l=xi[..., 5] * w)),
    # dp/dt = f; the angular sector and all casimirs are frozen
    ModelId.NONCENTRAL: ("noncentral: time flow pushes p by f t, rest frozen",
                         lambda xi, w: gm.dual_vector(ModelId.NONCENTRAL,
                                                      p1=xi[..., 4],
                                                      p2=xi[..., 5])),
    # dp/dt = f = -k q with q frozen
    ModelId.DOUBLE: ("double: time flow obeys dp/dt = -k q, dq/dt = 0",
                     lambda xi, w: gm.dual_vector(ModelId.DOUBLE,
                                                  p1=xi[..., 4],
                                                  p2=xi[..., 5])),
}


def check_time_flows(report: Report, params: ModelParams, models,
                     rng: np.random.Generator) -> None:
    for model, (name, velocity) in TIME_FLOW_ROWS.items():
        if model not in models:
            continue
        xi = gm.sample_dual(model, rng, nondegenerate=True, size=20)
        t = rng.uniform(-2.0, 2.0, size=20)
        out = dyn.time_flow_exact(model, xi, t, params)
        expected = xi + velocity(xi, params.omega) * t[:, None]
        report.add(name, _max_abs(out, expected), 1e-12)

    chart_selected = [m for m in models if m in CHART_MODELS]
    if chart_selected:
        # exact flow composes additively in t
        worst = 0.0
        for model in chart_selected:
            xi = gm.sample_dual(model, rng, nondegenerate=True, size=10)
            t1, t2 = rng.uniform(-1.0, 1.0, size=(2, 10))
            a, b = dyn.time_flow_exact(model, xi, np.array((t1 + t2, t2)),
                                       params)
            b = dyn.time_flow_exact(model, b, t1, params)
            worst = max(worst, _max_abs(a, b))
        report.add("time flow group property", worst, 1e-12)


#: Largest disagreement of a convention note's value with its reference
#: that still counts as agreement.
NOTE_TOL = 1e-10

#: Parameters s_a of the factors exp(s_a e_a) of a probe element, in
#: ALGEBRA_LABELS order; a model with n generators takes the first n.
PROBE_S = (0.3, 0.7, -0.4, 0.5, 0.2, -0.6, 0.45, 0.15)

#: The dual point of each chart model's probe.  _probes adds the charge (l
#: on central1, h elsewhere) m omega r^2: the points lie on default orbits.
PROBE_DUALS = {
    ModelId.CENTRAL1: dict(j=0.3, p1=0.8, p2=-0.5, E=0.1),
    ModelId.CENTRAL2: dict(j=0.2, p1=0.4, p2=0.9, E=0.3, l=0.8),
    ModelId.NONCENTRAL: dict(j=0.1, p1=0.7, p2=0.2, E=0.4, f1=0.6, f2=0.45),
    ModelId.DOUBLE: dict(j=0.3, p1=0.2, p2=-0.6, E=0.5, f1=0.7, f2=0.1, k=0.9),
}

#: A model's probe: g = prod_a exp(s_a e_a) composed by gm.multiply, the
#: dual point xi, the factors exp(s_a coad(e_a)) (n, n, n), and the
#: series' Ad*_g xi, their product applied to xi.
Probe = namedtuple("Probe", "model g xi factors reference")

#: A term printed in more than one form.  values(probe, params) gives the
#: implemented value, the alternate form's value and the oracle's.
Note = namedtuple("Note", "model term implemented alternate_form values "
                  "remark", defaults=("",))


def _probes(params: ModelParams) -> dict[ModelId, Probe]:
    """Every chart model's probe.

    The factors, dual points and series references come from
    _probe_references, memoized per (model, params); g is composed by
    gm.multiply on every call.
    """
    probes = {}
    for model in PROBE_DUALS:
        diag, xi, factors, reference = _probe_references(model, params)
        g = functools.reduce(lambda u, v: gm.multiply(model, u, v, params),
                             diag)
        probes[model] = Probe(model, g, xi, factors, reference)
    return probes


@functools.lru_cache(maxsize=64)
def _probe_references(model: ModelId, params: ModelParams) -> tuple:
    """A chart model's diag(s), dual point xi, factors and their product
    applied to xi, read-only.

    Row a of diag(s) holds the coordinates of exp(s_a e_a), and its
    coadjoint matrix coad(s_a e_a) exponentiates (expm) to the factor
    exp(s_a coad(e_a)).
    """
    diag = np.diag(PROBE_S[:gm.dim(model)])
    factors = expm(coad_matrix(gm.structure_tensor(model, params), diag))
    xi = gm.dual_vector(model, **PROBE_DUALS[model],  # the charge l or h
                        **{oc.CASIMIR_NAMES[model][0]: params.l_sub})
    return _read_only(diag, xi, factors,
                      functools.reduce(np.matmul, factors) @ xi)


def _coadjoint_term(slot, delta):
    """Note values of coadjoint slots: the closed form, the closed form
    plus delta(x, g, xi, params), the alternate's disputed term less ours
    (x is g's translation), and the series."""
    def values(probe: Probe, params: ModelParams):
        out = gm.coadjoint(probe.model, probe.g, probe.xi, params)[slot]
        return (out, out + delta(probe.g[1:3], probe.g, probe.xi, params),
                probe.reference[slot])
    return values


def _s_invariance(probe: Probe, params: ModelParams):
    """Change of s, and of 2 j - s (the other orientation), under the
    series' Ad*_g; an invariant changes by 0."""
    s0, s1 = oc.casimirs(probe.model, np.array((probe.xi, probe.reference)),
                         params)[:, 2]
    return s1 - s0, 2.0 * (probe.reference[0] - probe.xi[0]) - (s1 - s0), 0.0


CONVENTION_NOTES = (
    Note(ModelId.CENTRAL1, "coadjoint angular momentum, quadratic translation "
         "term", "-(l / (2 r^2)) |x|^2", "+(m omega / 2) |x|^2",
         _coadjoint_term(0, lambda x, g, xi, p: (
             xi[4] / p.r**2 + p.m_omega) * (x @ x) / 2)),
    Note(ModelId.CENTRAL1, "coadjoint momentum, translation coupling sign",
         "+(l / r^2) eps_vec(x)", "-(m omega) eps_vec(x)",
         _coadjoint_term(slice(1, 3), lambda x, g, xi, p: -(
             xi[4] / p.r**2 + p.m_omega) * eps_vec(x))),
    Note(ModelId.CENTRAL2, "coadjoint angular momentum, charge of the "
         "quadratic term", "-(h / (2 r^2)) |x|^2",
         "-((l + h omega t) / (2 r^2)) |x|^2",
         _coadjoint_term(0, lambda x, g, xi, p: (
             xi[5] - xi[4] - xi[5] * p.omega * g[3]) * (x @ x) / 2 / p.r**2)),
    Note(ModelId.CENTRAL2, "coadjoint momentum, translation charge",
         "(h / r^2) eps_vec(x)", "((l + h omega t) / r^2) eps_vec(x)",
         _coadjoint_term(slice(1, 3), lambda x, g, xi, p: (
             xi[4] + xi[5] * p.omega * g[3] - xi[5]) / p.r**2 * eps_vec(x))),
    Note(ModelId.CENTRAL2, "structure constants",
         "[P1, P2] = N / r^2 with [S, H] = omega N",
         "[P1, P2] = S / r^2 with [S, H] = omega N", lambda probe, p: (
             jacobi_defect(gm.structure_tensor(ModelId.CENTRAL2, p)),
             jacobi_defect(gm.defective_central2_tensor(p)), 0.0),
         "values are jacobi defects: the alternate form is not a Lie algebra "
         "(its defect is omega / r^2)"),
    Note(ModelId.NONCENTRAL, "coadjoint angular momentum, factor and force "
         "coupling", "-(h / (2 r^2)) |x|^2 and (eta + x t) x R f",
         "-(h / r^2) |x|^2 and eta x R f",
         _coadjoint_term(0, lambda x, g, xi, p: -xi[6] * (x @ x) / (2 * p.r**2)
                         - g[3] * cross2(x, rotation(g[0]) @ xi[4:6]))),
    Note(ModelId.NONCENTRAL, "time flow on the orbit chart",
         "p(t) = p + f t with (j, phi_f) and all casimirs frozen",
         "every chart coordinate frozen", lambda probe, p: (
             dyn.time_flow_exact(probe.model, probe.xi, PROBE_S[3], p),
             probe.xi, probe.factors[3] @ probe.xi),  # t = s_H
         "with [P_i, H] = F_i the momentum necessarily feels the constant "
         "force; only the angular sector is frozen"),
    Note(ModelId.DOUBLE, "coadjoint angular momentum, mixed translation term",
         "includes + k (x cross eta)", "term absent",
         _coadjoint_term(0, lambda x, g, xi, p: -xi[7] * cross2(x, g[4:6])),
         "required by the homomorphism property given p' = p + k eta under "
         "force translations"),
    Note(ModelId.DOUBLE, "invariant s, orientation of the non-angular part",
         "s = j + p x q - (h / (2 r^2)) |q|^2",
         "s = j - p x q + (h / (2 r^2)) |q|^2", _s_invariance,
         "values are the change of s under the probe's action: the alternate "
         "orientation is not conserved by the coadjoint action"),
)


def collect_convention_notes(params: ModelParams) -> list[dict]:
    """Measure each note's implemented and alternate forms at its probe.

    difference_at_probe is the largest |alternate - implemented|.  Both
    flags compare with the note's reference from the exponential series:
    the implemented value agrees within NOTE_TOL, and the alternate value
    is farther than NOTE_TOL from it.  An empty remark is left out.
    """
    probes = _probes(params)
    out = []
    for note in CONVENTION_NOTES:
        impl, alt, ref = note.values(probes[note.model], params)
        out.append({k: v for k, v in note._asdict().items()
                    if k != "values" and v != ""})
        out[-1].update(model=note.model.value,
                       difference_at_probe=_max_abs(alt, impl),
                       oracle_agrees_with_implementation=(
                           _max_abs(impl, ref) <= NOTE_TOL),
                       oracle_rejects_alternate=_max_abs(alt, ref) > NOTE_TOL)
    return out


def run_verify(models: list[ModelId] | None = None, seed: int = 0,
               params: ModelParams = DEFAULT_PARAMS,
               corruption: dict | None = None) -> Report:
    """Run the full property suite and return the Report."""
    rng = np.random.default_rng(seed)
    report = Report(seed=seed)
    selected = tuple(models) if models is not None else ALL_MODELS
    if not selected:
        raise ValueError("no models selected")
    # the extension charges of the structure constants, and the central1
    # cocycle that check_cocycle runs for base, carry 1 / r**2
    if np.isinf(1.0 / params.r**2):
        raise oc.SingularityError(f"1 / r**2 overflows at r = {params.r!r}")

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
