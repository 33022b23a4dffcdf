"""Orbit charts, Casimir invariants, restricted forms and Poisson brackets.

Charts (coordinates on the maximal coadjoint orbits)
----------------------------------------------------
central1    (p, q) with p = p1, q = -p2 / (m omega); labels (l, E, s).
central2    (p, q, l, alpha) with alpha = -E / (h omega); labels (h, s).
noncentral  (j, phi_f, p, q) with f1 = f cos(phi_f), f2 = f sin(phi_f);
            labels (h, f, U).
double      (p1, p2, q1, q2) with q = -f / k; labels (h, k, s, U).

A chart point together with its CasimirSet determines the dual point
exactly, so dual_from_chart(chart_from_dual(xi)) round-trips bit for bit.

Two distinct matrix objects live here and they are not inverses of each
other in general:

* omega_matrix returns the restriction of the Kirillov form to the orbit
  directions in a fixed generator basis (P1, P2), (P1, P2, H, S),
  (J, F1, P1, P2), (P1, P2, F1, F2).  Its entries are the familiar
  m omega, h omega and k blocks, and for the noncentral model its inverse
  carries the 1 / (m omega f sin phi) prefactor.
* poisson_tensor returns the Poisson matrix Pi of the chart coordinate
  functions, written in closed form (chart_poisson).  It equals the
  pushforward -Jac K Jac^T of the dual Poisson structure
  {F, G}(xi) = -<xi, [dF, dG]>, which the verify suite rebuilds from the
  structure constants as its oracle.  On default orbits its entries are
  the chart bracket tables {p, q} = 1, {l, alpha} = 1, {j, phi_f} = 1,
  {j, p} = m omega q, {j, q} = -p / (m omega), {p_i, p_j} = -m omega eps_ij,
  {p_i, q^j} = delta_i^j; off them the charge enters (see chart_poisson).

The inverse of poisson_tensor (omega_chart below) is the symplectic matrix
of the chart; Pi @ omega_chart = identity always.

Casimir functions use the per-orbit action scale: the extension charge
(l for central1, h elsewhere) divided by r**2 plays the role of m omega,
which makes every invariant exact for arbitrary dual points rather than
only on the orbit with charge = m omega r**2.  Chart maps use the model
parameters directly, matching the defaults where charge = m omega r**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import ModelParams, cross2, kirillov_matrix
from . import group_models as gm
from .group_models import ModelId

DEG_TOL = 1e-12

DEFAULT_PARAMS = ModelParams()


class ChartDegeneracyError(ValueError):
    """The dual point sits where the chart (or a Casimir) is undefined."""


class SingularityError(ArithmeticError):
    """A restricted form is singular at the requested configuration."""


CHART_COORDS: dict[ModelId, tuple[str, ...]] = {
    ModelId.CENTRAL1: ("p", "q"),
    ModelId.CENTRAL2: ("p", "q", "l", "alpha"),
    ModelId.NONCENTRAL: ("j", "phi_f", "p", "q"),
    ModelId.DOUBLE: ("p1", "p2", "q1", "q2"),
}

CASIMIR_NAMES: dict[ModelId, tuple[str, ...]] = {
    ModelId.CENTRAL1: ("l", "E", "s"),
    ModelId.CENTRAL2: ("h", "s"),
    ModelId.NONCENTRAL: ("h", "f", "U"),
    ModelId.DOUBLE: ("h", "k", "s", "U"),
}

#: Generator directions spanning the orbit, used by omega_matrix.
OMEGA_BASIS: dict[ModelId, tuple[str, ...]] = {
    ModelId.CENTRAL1: ("P1", "P2"),
    ModelId.CENTRAL2: ("P1", "P2", "H", "S"),
    ModelId.NONCENTRAL: ("J", "F1", "P1", "P2"),
    ModelId.DOUBLE: ("P1", "P2", "F1", "F2"),
}


@dataclass(frozen=True)
class CasimirSet:
    """Named invariant values of one orbit, ordered per CASIMIR_NAMES."""

    model: ModelId
    values: tuple[float, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return CASIMIR_NAMES[self.model]

    def get(self, name: str) -> float:
        return self.values[self.names.index(name)]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))


@dataclass(frozen=True)
class OrbitPoint:
    """Chart coordinates plus the CasimirSet labeling the orbit."""

    model: ModelId
    coords: tuple[float, ...]
    casimirs: CasimirSet

    @property
    def coord_names(self) -> tuple[str, ...]:
        return CHART_COORDS[self.model]

    def coord(self, name: str) -> float:
        return self.coords[self.coord_names.index(name)]

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def replace_coords(self, coords) -> "OrbitPoint":
        return OrbitPoint(self.model, tuple(float(v) for v in coords),
                          self.casimirs)


def _require_nonzero(value: float, name: str, model: ModelId) -> None:
    if abs(value) < DEG_TOL:
        raise ChartDegeneracyError(
            f"{model.value}: |{name}| = {abs(value):.3e} is below the "
            f"degeneracy threshold {DEG_TOL:.0e}"
        )


def casimirs(model: ModelId, xi, params: ModelParams = DEFAULT_PARAMS) -> CasimirSet:
    """Casimir invariants at the dual point xi.

    central1: (l, E, s) with s = j + |p|^2 r^2 / (2 l)
    central2: (h, s) with the same s built on h
    noncentral: (h, f, U) with f = |fvec| and U = E + (r^2/h) (p x f)
    double: (h, k, s, U) with q = -f/k, s = j + p x q - (h / 2 r^2) |q|^2
            and U = E - k |q|^2 / 2

    Written with the orbit's own charge these are exactly conserved by the
    coadjoint action for every dual point; at charge = m omega r**2 they
    reduce to the m omega forms of the chart documentation.
    """
    xi = np.asarray(xi, dtype=float)
    r2 = params.r**2
    j, p, E = xi[0], xi[1:3], xi[3]
    if model is ModelId.CENTRAL1:
        l = xi[4]
        _require_nonzero(l, "l", model)
        s = j + (p @ p) * r2 / (2.0 * l)
        return CasimirSet(model, (l, E, s))
    if model is ModelId.CENTRAL2:
        h = xi[5]
        _require_nonzero(h, "h", model)
        s = j + (p @ p) * r2 / (2.0 * h)
        return CasimirSet(model, (h, s))
    if model is ModelId.NONCENTRAL:
        f = xi[4:6]
        h = xi[6]
        _require_nonzero(h, "h", model)
        fmag = float(np.hypot(f[0], f[1]))
        _require_nonzero(fmag, "f", model)
        U = E + (r2 / h) * cross2(p, f)
        return CasimirSet(model, (h, fmag, U))
    if model is ModelId.DOUBLE:
        f = xi[4:6]
        h, k = xi[6], xi[7]
        _require_nonzero(k, "k", model)
        q = -f / k
        s = j + cross2(p, q) - h * (q @ q) / (2.0 * r2)
        U = E - 0.5 * k * (q @ q)
        return CasimirSet(model, (h, k, s, U))
    raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")


def chart_from_dual(model: ModelId, xi,
                    params: ModelParams = DEFAULT_PARAMS) -> OrbitPoint:
    """Chart point of the dual vector xi, with its CasimirSet recorded."""
    xi = np.asarray(xi, dtype=float)
    cas = casimirs(model, xi, params)
    mw = params.m_omega
    if model is ModelId.CENTRAL1:
        coords = (xi[1], -xi[2] / mw)
    elif model is ModelId.CENTRAL2:
        h = cas.get("h")
        coords = (xi[1], -xi[2] / mw, xi[4], -xi[3] / (h * params.omega))
    elif model is ModelId.NONCENTRAL:
        phi_f = float(np.arctan2(xi[5], xi[4]))
        coords = (xi[0], phi_f, xi[1], -xi[2] / mw)
    elif model is ModelId.DOUBLE:
        k = cas.get("k")
        coords = (xi[1], xi[2], -xi[4] / k, -xi[5] / k)
    else:
        raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")
    return OrbitPoint(model, tuple(float(v) for v in coords), cas)


def dual_from_chart(point: OrbitPoint,
                    params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Dual vector reconstructed from a chart point and its CasimirSet."""
    model = point.model
    z = point.array()
    cas = point.casimirs
    r2 = params.r**2
    mw = params.m_omega
    if model is ModelId.CENTRAL1:
        p, q = z
        l, E_, s = cas.values
        pvec = np.array([p, -mw * q])
        j = s - (pvec @ pvec) * r2 / (2.0 * l)
        return np.array([j, pvec[0], pvec[1], E_, l])
    if model is ModelId.CENTRAL2:
        p, q, l, alpha = z
        h, s = cas.values
        pvec = np.array([p, -mw * q])
        j = s - (pvec @ pvec) * r2 / (2.0 * h)
        E_ = -alpha * h * params.omega
        return np.array([j, pvec[0], pvec[1], E_, l, h])
    if model is ModelId.NONCENTRAL:
        j, phi_f, p, q = z
        h, fmag, U = cas.values
        pvec = np.array([p, -mw * q])
        fvec = fmag * np.array([np.cos(phi_f), np.sin(phi_f)])
        E_ = U - (r2 / h) * cross2(pvec, fvec)
        return np.array([j, pvec[0], pvec[1], E_, fvec[0], fvec[1], h])
    if model is ModelId.DOUBLE:
        p1, p2, q1, q2 = z
        h, k, s, U = cas.values
        qvec = np.array([q1, q2])
        fvec = -k * qvec
        j = s - cross2([p1, p2], qvec) + h * (qvec @ qvec) / (2.0 * r2)
        E_ = U + 0.5 * k * (qvec @ qvec)
        return np.array([j, p1, p2, E_, fvec[0], fvec[1], h, k])
    raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")


def orbit_point(model: ModelId, coords, params: ModelParams = DEFAULT_PARAMS,
                **labels) -> OrbitPoint:
    """Chart point with default orbit labels.

    Defaults: charge l = h = m omega r**2, Hooke constant k = 1, the hidden
    angular momentum j = 0 and hidden energy E = 0; for the noncentral
    model the force magnitude defaults to f = 1.  Any label can be
    overridden by keyword (central1: l, E; central2: h; noncentral: h, f,
    E; double: h, k, E; plus j where it is not a chart coordinate).
    """
    coords = tuple(float(v) for v in coords)
    if len(coords) != len(CHART_COORDS[model]):
        raise ChartDegeneracyError(
            f"{model.value} chart needs {len(CHART_COORDS[model])} "
            f"coordinates, got {len(coords)}"
        )
    r2 = params.r**2
    mw = params.m_omega
    if "j" in labels and model is ModelId.NONCENTRAL:
        raise ChartDegeneracyError("j is a chart coordinate of the "
                                   "noncentral model, not an orbit label")
    j0 = float(labels.pop("j", 0.0))
    E0 = float(labels.pop("E", 0.0))
    if model is ModelId.CENTRAL1:
        l = float(labels.pop("l", params.l_sub))
        _check_no_extra(labels)
        _require_nonzero(l, "l", model)
        p, q = coords
        pvec = np.array([p, -mw * q])
        s = j0 + (pvec @ pvec) * r2 / (2.0 * l)
        return OrbitPoint(model, coords, CasimirSet(model, (l, E0, s)))
    if model is ModelId.CENTRAL2:
        h = float(labels.pop("h", params.l_sub))
        _check_no_extra(labels)
        _require_nonzero(h, "h", model)
        p, q = coords[0], coords[1]
        pvec = np.array([p, -mw * q])
        s = j0 + (pvec @ pvec) * r2 / (2.0 * h)
        return OrbitPoint(model, coords, CasimirSet(model, (h, s)))
    if model is ModelId.NONCENTRAL:
        h = float(labels.pop("h", params.l_sub))
        fmag = float(labels.pop("f", 1.0))
        _check_no_extra(labels)
        _require_nonzero(h, "h", model)
        _require_nonzero(fmag, "f", model)
        _, phi_f, p, q = coords
        pvec = np.array([p, -mw * q])
        fvec = fmag * np.array([np.cos(phi_f), np.sin(phi_f)])
        U = E0 + (r2 / h) * cross2(pvec, fvec)
        return OrbitPoint(model, coords, CasimirSet(model, (h, fmag, U)))
    if model is ModelId.DOUBLE:
        h = float(labels.pop("h", params.l_sub))
        k = float(labels.pop("k", 1.0))
        _check_no_extra(labels)
        _require_nonzero(k, "k", model)
        p = np.array(coords[0:2])
        q = np.array(coords[2:4])
        s = j0 + cross2(p, q) - h * (q @ q) / (2.0 * r2)
        U = E0 - 0.5 * k * (q @ q)
        return OrbitPoint(model, coords, CasimirSet(model, (h, k, s, U)))
    raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")


def _check_no_extra(labels: dict) -> None:
    if labels:
        raise ChartDegeneracyError(f"unknown orbit labels {sorted(labels)}")


def omega_matrix(model: ModelId, point: OrbitPoint,
                 params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Restriction of the Kirillov form to the orbit's generator directions.

    central1: [[0, mw], [-mw, 0]] on (P1, P2);
    central2: that block plus [[0, -h omega], [h omega, 0]] on (H, S);
    noncentral: on (J, F1, P1, P2), singular where f sin(phi_f) = 0;
    double: m omega and k blocks on (P1, P2, F1, F2).
    Here mw is the orbit charge over r**2, equal to m omega on default
    orbits.
    """
    xi = dual_from_chart(point, params)
    if model is ModelId.NONCENTRAL:
        f2 = xi[5]
        if abs(f2) < DEG_TOL:
            raise SingularityError(
                "noncentral restricted form is singular where "
                f"f*sin(phi_f) = {f2:.3e}"
            )
    tensor = gm.structure_tensor(model, params)
    k_full = kirillov_matrix(tensor, xi)
    idx = [tensor.index(lab) for lab in OMEGA_BASIS[model]]
    return k_full[np.ix_(idx, idx)]


def chart_jacobian(model: ModelId, xi,
                   params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Jacobian of the chart coordinates with respect to dual coordinates.

    Derivatives along Casimir-only directions (h, k rows of the structure)
    are dropped; those directions carry a vanishing Poisson structure, so
    the pushforward -Jac K Jac^T, which the verify suite checks
    poisson_tensor against, is unaffected.
    """
    xi = np.asarray(xi, dtype=float)
    n = gm.dim(model)
    mw = params.m_omega
    if model is ModelId.CENTRAL1:
        jac = np.zeros((2, n))
        jac[0, 1] = 1.0
        jac[1, 2] = -1.0 / mw
        return jac
    if model is ModelId.CENTRAL2:
        h = xi[5]
        _require_nonzero(h, "h", model)
        jac = np.zeros((4, n))
        jac[0, 1] = 1.0
        jac[1, 2] = -1.0 / mw
        jac[2, 4] = 1.0
        jac[3, 3] = -1.0 / (h * params.omega)
        return jac
    if model is ModelId.NONCENTRAL:
        f = xi[4:6]
        fsq = float(f @ f)
        if fsq < DEG_TOL**2:
            raise ChartDegeneracyError("noncentral chart needs f > 0")
        jac = np.zeros((4, n))
        jac[0, 0] = 1.0
        jac[1, 4] = -f[1] / fsq
        jac[1, 5] = f[0] / fsq
        jac[2, 1] = 1.0
        jac[3, 2] = -1.0 / mw
        return jac
    if model is ModelId.DOUBLE:
        k = xi[7]
        _require_nonzero(k, "k", model)
        jac = np.zeros((4, n))
        jac[0, 1] = 1.0
        jac[1, 2] = 1.0
        jac[2, 4] = -1.0 / k
        jac[3, 5] = -1.0 / k
        return jac
    raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")


def chart_poisson(model: ModelId, z, labels,
                  params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Poisson matrix Pi_{ab} = {z_a, z_b} at chart coordinates z.

    labels are the orbit's Casimir values in CASIMIR_NAMES order.  Closed
    form of the pushforward -Jac K Jac^T, with kappa = charge / (m omega
    r**2) (charge l for central1, h elsewhere; kappa = 1 on default orbits):

    central1    {p, q} = kappa
    central2    {p, q} = kappa, {l, alpha} = 1
    noncentral  {j, phi_f} = 1, {j, p} = m omega q, {j, q} = -p / (m omega),
                {p, q} = kappa
    double      {p1, p2} = -h / r**2, {p_i, q^j} = delta_i^j

    The Hooke constant k cancels from the double chart: q = -f / k meets
    [P_i, F_j] = K delta_ij.  Only the noncentral matrix depends on z.
    """
    mw = params.m_omega
    r2 = params.r**2
    charge = labels[0]  # l on central1, h on the other charts
    kappa = charge / (mw * r2)
    if model is ModelId.CENTRAL1:
        return np.array([[0.0, kappa], [-kappa, 0.0]])
    if model is ModelId.CENTRAL2:
        return np.array([[0.0, kappa, 0.0, 0.0],
                         [-kappa, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0],
                         [0.0, 0.0, -1.0, 0.0]])
    if model is ModelId.NONCENTRAL:
        jp = mw * z[3]
        jq = -z[2] / mw
        return np.array([[0.0, 1.0, jp, jq],
                         [-1.0, 0.0, 0.0, 0.0],
                         [-jp, 0.0, 0.0, kappa],
                         [-jq, 0.0, -kappa, 0.0]])
    if model is ModelId.DOUBLE:
        b = charge / r2
        return np.array([[0.0, -b, 1.0, 0.0],
                         [b, 0.0, 0.0, 1.0],
                         [-1.0, 0.0, 0.0, 0.0],
                         [0.0, -1.0, 0.0, 0.0]])
    raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")


def poisson_tensor(model: ModelId, point: OrbitPoint,
                   params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Poisson matrix of the chart coordinates at an orbit point.

    chart_poisson at the point's coordinates and Casimir labels.
    """
    if point.model is not model:
        raise gm.ModelMismatchError(f"point belongs to {point.model.value}, "
                                    f"not {model.value}")
    return chart_poisson(model, point.coords, point.casimirs.values, params)


def phase_space_blocks(model: ModelId, point: OrbitPoint,
                       params: ModelParams = DEFAULT_PARAMS
                       ) -> dict[str, np.ndarray]:
    """F, G and coupling blocks of the chart tensor on (p, q) splits.

    For charts made of momentum/position pairs this returns the pieces of
    the generic noncommutative structure {q^i, q^j} = G^ij,
    {q^i, p_j} = delta^i_j, {p_i, p_j} = F_ij.  The double model carries
    the magnetic block F = -m omega eps and a vanishing G; central1 is the
    canonical 1-pair case.  The G slot is structural plumbing: no built-in
    model produces a nonzero dual magnetic block.
    """
    if model is ModelId.CENTRAL1:
        p_idx, q_idx = [0], [1]
    elif model is ModelId.DOUBLE:
        p_idx, q_idx = [0, 1], [2, 3]
    else:
        raise gm.ModelMismatchError(
            f"{model.value} chart has no global momentum/position split")
    pi = poisson_tensor(model, point, params)
    return {
        "momentum_momentum": pi[np.ix_(p_idx, p_idx)],
        "position_position": pi[np.ix_(q_idx, q_idx)],
        "position_momentum": pi[np.ix_(q_idx, p_idx)],
    }


def omega_chart(model: ModelId, point: OrbitPoint,
                params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Symplectic matrix of the chart, the inverse of poisson_tensor."""
    pi = poisson_tensor(model, point, params)
    det = np.linalg.det(pi)
    if abs(det) < DEG_TOL:
        raise SingularityError(
            f"chart Poisson tensor is singular (det = {det:.3e})"
        )
    return np.linalg.inv(pi)


def gradient_fd(f):
    """Gradient of a scalar chart function by central differences.

    Steps are 1e-6 * (1 + |z_i|) per coordinate, balancing truncation and
    rounding at double precision.
    """
    def grad(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        for i in range(z.size):
            step = 1e-6 * (1.0 + abs(z[i]))
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            out[i] = (f(zp) - f(zm)) / (2.0 * step)
        return out
    return grad


def poisson_bracket(model: ModelId, fgrad, ggrad, point: OrbitPoint,
                    params: ModelParams = DEFAULT_PARAMS) -> float:
    """{f, g} = grad f . Pi . grad g at the chart point.

    fgrad and ggrad map a chart coordinate array to a gradient array; use
    gradient_fd to lift plain scalar functions.
    """
    z = point.array()
    pi = poisson_tensor(model, point, params)
    return float(np.asarray(fgrad(z)) @ pi @ np.asarray(ggrad(z)))


def coordinate_gradient(model: ModelId, name: str):
    """Gradient function of the chart coordinate with the given name."""
    names = CHART_COORDS[model]
    i = names.index(name)
    n = len(names)

    def grad(z: np.ndarray) -> np.ndarray:
        e = np.zeros(n)
        e[i] = 1.0
        return e
    return grad


def canonicalize_noncentral(point: OrbitPoint,
                            params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Canonical chart (energy, time, p, q) of a noncentral orbit point.

    energy = j omega + p**2 / (2 m) + m omega**2 q**2 / 2 and
    time = phi_f / omega; in this chart {energy, time} = {p, q} = 1 and
    every other coordinate bracket vanishes.
    """
    if point.model is not ModelId.NONCENTRAL:
        raise gm.ModelMismatchError("canonical chart applies to the "
                                    "noncentral model")
    j, phi_f, p, q = point.array()
    w = params.omega
    energy = j * w + p**2 / (2.0 * params.m) + 0.5 * params.m * w**2 * q**2
    return np.array([energy, phi_f / w, p, q])


def canonical_energy_gradient(params: ModelParams = DEFAULT_PARAMS):
    """Gradient (in the noncentral chart) of the canonical energy function."""
    def grad(z: np.ndarray) -> np.ndarray:
        _, _, p, q = z
        w = params.omega
        return np.array([w, 0.0, p / params.m, params.m * w**2 * q])
    return grad
