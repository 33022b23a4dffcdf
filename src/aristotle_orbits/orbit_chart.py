"""Orbit charts, Casimir invariants, restricted forms and Poisson brackets.

Charts (coordinates on the maximal coadjoint orbits)
----------------------------------------------------
central1    (p, q) with p = p1, q = -p2 / (m omega); labels (l, E, s).
central2    (p, q, l, alpha) with alpha = -E / (h omega); labels (h, s).
noncentral  (j, phi_f, p, q) with f1 = f cos(phi_f), f2 = f sin(phi_f);
            labels (h, f, U).
double      (p1, p2, q1, q2) with q = -f / k; labels (h, k, s, U).

An OrbitPoint holds arrays: coords (..., d) in CHART_COORDS order and
labels (..., c), the orbit's Casimir values in CASIMIR_NAMES order.
Leading axes are batch axes, as for the group elements of group_models:
casimirs, chart_from_dual and dual_from_chart are written once per chart
with slot-first views, so one call maps a single point or a stack of
points, and a stacked call equals the row-by-row calls bit for bit.  The
matrix-valued maps follow the same rule with two trailing matrix axes:
chart_jacobian returns (..., d, n), and chart_poisson, poisson_tensor,
omega_matrix and omega_chart return (..., d, d) (phase_space_blocks its
blocks likewise, poisson_bracket a value per point).  A point of another
model raises ModelMismatchError; coords and labels whose trailing lengths
are wrong or whose batch shapes do not broadcast raise a one-line
DimensionMismatchError.

A chart point together with its labels determines the dual point, and
dual_from_chart(chart_from_dual(xi)) returns xi up to rounding, not bit
for bit: of 10000 nondegenerate sample_dual points per chart, 12 to 81 %
come back changed in some slot, by at most 8.9e-16 at m = omega = r = 1
and 2.0e-15 at (m, omega, r) = (1.7, 0.6, 1.3).

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
of the chart.  Pulled back along the orbit directions A = Jac K[:, basis]
it gives omega_matrix again, A^T omega_chart A = omega_matrix, which ties
the two objects together.

Casimir functions use the per-orbit action scale: the extension charge
(l for central1, h elsewhere) divided by r**2 plays the role of m omega,
which makes every invariant exact for arbitrary dual points rather than
only on the orbit with charge = m omega r**2.  Chart maps use the model
parameters directly, matching the defaults where charge = m omega r**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import (DimensionMismatchError, ModelParams, cross2,
                       kirillov_matrix)
from . import group_models as gm
from .group_models import ModelId, _dot, _slot_first, _trailing

DEG_TOL = 1e-12

DEFAULT_PARAMS = ModelParams()


class ChartDegeneracyError(ValueError):
    """The dual point sits where the chart (or a Casimir) is undefined."""


class SingularityError(ArithmeticError):
    """A restricted form is singular, or Casimir labels overflow."""


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

#: Keywords orbit_point takes per chart: the orbit's charges, and the dual
#: coordinates j and E where the chart leaves them hidden (j is a
#: noncentral chart coordinate, and central2's alpha fixes E).
_LABEL_KEYS: dict[ModelId, tuple[str, ...]] = {
    ModelId.CENTRAL1: ("l", "E", "j"),
    ModelId.CENTRAL2: ("h", "j"),
    ModelId.NONCENTRAL: ("h", "f", "E"),
    ModelId.DOUBLE: ("h", "k", "j", "E"),
}

#: Dual slot of j (0) or E (3) that a Casimir carries with unit weight:
#: s = j + ..., U = E + ... and, on central1, E itself.
_HIDDEN_SLOT = {"s": 0, "U": 3, "E": 3}


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    """Chart points and the Casimir labels of their orbits.

    coords (..., d) follows CHART_COORDS[model] and labels (..., c)
    CASIMIR_NAMES[model]; their batch shapes broadcast together.
    """

    model: ModelId
    coords: np.ndarray
    labels: np.ndarray


def _require_nonzero(value, name: str, model: ModelId) -> None:
    smallest = abs(value).min()
    if smallest < DEG_TOL:
        raise ChartDegeneracyError(
            f"{model.value}: |{name}| = {smallest:.3e} is below the "
            f"degeneracy threshold {DEG_TOL:.0e}"
        )


def _stack(parts) -> np.ndarray:
    """Slot values stacked along a new last axis, undoing _slot_first.

    Batch shapes broadcast, so chart coordinates of a stack of points can
    meet the labels of one orbit.
    """
    try:
        out = np.array(parts, dtype=float)
    except ValueError:  # the batch shapes differ
        out = np.array(np.broadcast_arrays(*parts), dtype=float)
    return out.transpose(*range(1, out.ndim), 0)


def casimirs(model: ModelId, xi, params: ModelParams = DEFAULT_PARAMS
             ) -> np.ndarray:
    """Casimir invariants (..., c) at the dual points xi (..., n).

    central1: (l, E, s) with s = j + |p|^2 r^2 / (2 l)
    central2: (h, s) with the same s built on h
    noncentral: (h, f, U) with f = |fvec| and U = E + (r^2/h) (p x f)
    double: (h, k, s, U) with q = -f/k, s = j + p x q - (h / 2 r^2) |q|^2
            and U = E - k |q|^2 / 2

    Written with the orbit's own charge these are exactly conserved by the
    coadjoint action for every dual point; at charge = m omega r**2 they
    reduce to the m omega forms of the chart documentation.
    """
    v = _slot_first(_trailing(model, xi))
    r2 = params.r**2
    j, p, E = v[0], v[1:3], v[3]
    if model is ModelId.CENTRAL1:
        l = v[4]
        _require_nonzero(l, "l", model)
        return _stack((l, E, j + _dot(p, p) * r2 / (2.0 * l)))
    if model is ModelId.CENTRAL2:
        h = v[5]
        _require_nonzero(h, "h", model)
        return _stack((h, j + _dot(p, p) * r2 / (2.0 * h)))
    if model is ModelId.NONCENTRAL:
        f, h = v[4:6], v[6]
        _require_nonzero(h, "h", model)
        fmag = np.hypot(f[0], f[1])
        _require_nonzero(fmag, "f", model)
        return _stack((h, fmag, E + (r2 / h) * cross2(p, f)))
    if model is ModelId.DOUBLE:
        f, h, k = v[4:6], v[6], v[7]
        _require_nonzero(k, "k", model)
        q = -f / k
        qq = _dot(q, q)
        return _stack((h, k, j + cross2(p, q) - h * qq / (2.0 * r2),
                       E - 0.5 * k * qq))
    raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")


def chart_from_dual(model: ModelId, xi,
                    params: ModelParams = DEFAULT_PARAMS) -> OrbitPoint:
    """Chart points of the dual points xi (..., n), labelled by casimirs.

    Raises ChartDegeneracyError if any slot of xi is not finite.
    """
    xi = _trailing(model, xi)
    if not np.isfinite(xi).all():
        raise ChartDegeneracyError(f"{model.value}: dual point must be finite")
    labels = casimirs(model, xi, params)
    v = _slot_first(xi)
    q = -v[2] / params.m_omega
    if model is ModelId.CENTRAL1:
        coords = (v[1], q)
    elif model is ModelId.CENTRAL2:
        coords = (v[1], q, v[4], -v[3] / (v[5] * params.omega))
    elif model is ModelId.NONCENTRAL:
        coords = (v[0], np.arctan2(v[5], v[4]), v[1], q)
    else:  # double; casimirs rejected the models without a chart
        coords = (v[1], v[2], -v[4] / v[7], -v[5] / v[7])
    return OrbitPoint(model, _stack(coords), labels)


def _dual_point(model: ModelId, coords, lab: dict,
                params: ModelParams) -> np.ndarray:
    """Dual points (..., n) of chart coordinates (..., d).

    lab maps the charges (l or h, f, k) and the hidden j and E to values
    that broadcast against the coordinates' batch shape.
    """
    z = _slot_first(np.asarray(coords, dtype=float))
    mw = params.m_omega
    if model is ModelId.CENTRAL1:
        p, q = z
        parts = (lab["j"], p, -mw * q, lab["E"], lab["l"])
    elif model is ModelId.CENTRAL2:
        p, q, l, alpha = z
        h = lab["h"]
        parts = (lab["j"], p, -mw * q, -alpha * h * params.omega, l, h)
    elif model is ModelId.NONCENTRAL:
        j, phi_f, p, q = z
        f = lab["f"]
        parts = (j, p, -mw * q, lab["E"], f * np.cos(phi_f),
                 f * np.sin(phi_f), lab["h"])
    else:
        p1, p2, q1, q2 = z
        k = lab["k"]
        parts = (lab["j"], p1, p2, lab["E"], -k * q1, -k * q2, lab["h"], k)
    return _stack(parts)


def dual_from_chart(point: OrbitPoint,
                    params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Dual vectors (..., n) reconstructed from chart points and labels.

    The coordinates and the charges fix every dual slot but the hidden j
    and E.  Each Casimir that carries one of them does so with unit
    weight (s = j + ..., U = E + ..., and E on central1), so the slot is
    the label minus that Casimir evaluated with j = E = 0.  Batch shapes
    of coords and labels that do not broadcast raise DimensionMismatchError.
    """
    model = point.model
    names = CASIMIR_NAMES[model]
    _batch_shape(model, point.coords, point.labels)
    labels = np.asarray(point.labels, dtype=float)
    lab = dict(zip(names, _slot_first(labels)), j=0.0, E=0.0)
    xi = _dual_point(model, point.coords, lab, params)
    at_zero = casimirs(model, xi, params)
    for i, name in enumerate(names):
        if name in _HIDDEN_SLOT:
            xi[..., _HIDDEN_SLOT[name]] = labels[..., i] - at_zero[..., i]
    return xi


def orbit_point(model: ModelId, coords, params: ModelParams = DEFAULT_PARAMS,
                **labels) -> OrbitPoint:
    """Chart points (..., d) on the orbit fixed by default or given labels.

    Defaults: charge l = h = m omega r**2, Hooke constant k = 1, force
    magnitude f = 1, and the hidden dual coordinates j = 0 and E = 0.
    Keywords per chart (_LABEL_KEYS), each a number or an array that
    broadcasts against the batch shape of coords: central1 l, E, j;
    central2 h, j; noncentral h, f, E; double h, k, j, E.  The charges
    are stored as given; s and U are the casimirs of the dual point.
    Other keywords, non-finite input and a noncentral force magnitude
    f <= 0 raise ChartDegeneracyError; Casimirs that overflow raise
    SingularityError.
    """
    keys = _LABEL_KEYS.get(model)
    if keys is None:
        raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")
    unknown = sorted(set(labels) - set(keys))
    if unknown:
        raise ChartDegeneracyError(f"{model.value} orbit labels are "
                                   f"{', '.join(keys)}; got {unknown}")
    z = np.array(coords, dtype=float)
    d = len(CHART_COORDS[model])
    if z.shape[-1:] != (d,):
        raise ChartDegeneracyError(f"{model.value} chart needs {d} "
                                   f"coordinates, got shape {z.shape}")
    labels = {name: np.asarray(value, dtype=float)
              for name, value in labels.items()}
    try:
        np.broadcast_shapes(z.shape[:-1], *(v.shape for v in labels.values()))
    except ValueError:
        raise ChartDegeneracyError(
            f"{model.value}: label shapes do not broadcast against the "
            f"batch shape {z.shape[:-1]} of coords") from None
    if not all(np.isfinite(v).all() for v in (z, *labels.values())):
        raise ChartDegeneracyError(f"{model.value}: chart coordinates and "
                                   "labels must be finite")
    f = labels.get("f", 1.0)
    if np.min(f) <= 0.0:
        # f is the magnitude |(f1, f2)|, which casimirs would report instead
        raise ChartDegeneracyError(f"{model.value} force magnitude f must be "
                                   f"positive, got {float(np.min(f))!r}")
    lab = {"l": params.l_sub, "h": params.l_sub, "f": 1.0, "k": 1.0,
           "j": 0.0, "E": 0.0, **labels}
    # finite coordinates and labels can still have Casimirs beyond the
    # float range (coordinates scaled by a huge m omega, squared)
    with np.errstate(over="ignore", invalid="ignore"):
        values = casimirs(model, _dual_point(model, z, lab, params), params)
    if not np.isfinite(values).all():
        raise SingularityError(f"{model.value}: the Casimir labels of these "
                               f"chart points overflow")
    for i, name in enumerate(CASIMIR_NAMES[model]):
        if name in keys:
            values[..., i] = lab[name]
    return OrbitPoint(model, z, values)


def _batch_shape(model: ModelId, coords, labels) -> tuple[int, ...]:
    """Batch shape of chart coordinates (..., d) and labels (..., c).

    Raises a one-line DimensionMismatchError for wrong trailing lengths or
    batch shapes that do not broadcast.
    """
    d, c = len(CHART_COORDS[model]), len(CASIMIR_NAMES[model])
    zs, ls = np.shape(coords), np.shape(labels)
    if zs[-1:] != (d,) or ls[-1:] != (c,):
        raise DimensionMismatchError(
            f"{model.value}: expected coords (..., {d}) and labels "
            f"(..., {c}); got {zs} and {ls}")
    try:
        return np.broadcast_shapes(zs[:-1], ls[:-1])
    except ValueError:
        raise DimensionMismatchError(
            f"{model.value}: batch shapes {zs[:-1]} of coords and "
            f"{ls[:-1]} of labels do not broadcast") from None


def _check_point(model: ModelId, point: OrbitPoint) -> None:
    """Reject a point of another model or with mismatched shapes."""
    if model not in CHART_COORDS:
        raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")
    if point.model is not model:
        raise gm.ModelMismatchError(f"point belongs to {point.model.value}, "
                                    f"not {model.value}")
    _batch_shape(model, point.coords, point.labels)


def omega_matrix(model: ModelId, point: OrbitPoint,
                 params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Restriction of the Kirillov form to the orbit's generator directions.

    central1: [[0, mw], [-mw, 0]] on (P1, P2);
    central2: that block plus [[0, -h omega], [h omega, 0]] on (H, S);
    noncentral: on (J, F1, P1, P2), singular where f sin(phi_f) = 0;
    double: m omega and k blocks on (P1, P2, F1, F2).
    Here mw is the orbit charge over r**2, equal to m omega on default
    orbits.  A stacked point gives the stacked matrices (..., d, d).
    """
    _check_point(model, point)
    xi = dual_from_chart(point, params)
    if model is ModelId.NONCENTRAL:
        f2 = np.abs(xi[..., 5]).min()
        if f2 < DEG_TOL:
            raise SingularityError(
                "noncentral restricted form is singular where "
                f"|f*sin(phi_f)| = {f2:.3e}"
            )
    tensor = gm.structure_tensor(model, params)
    idx = [tensor.index(lab) for lab in OMEGA_BASIS[model]]
    return kirillov_matrix(tensor, xi)[..., idx, :][..., idx]


def chart_jacobian(model: ModelId, xi,
                   params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Jacobians (..., d, n) of the chart coordinates at dual points (..., n).

    Derivatives along Casimir-only directions (h, k rows of the structure)
    are dropped; those directions carry a vanishing Poisson structure, so
    the pushforward -Jac K Jac^T, which the verify suite checks
    poisson_tensor against, is unaffected.
    """
    if model not in CHART_COORDS:
        raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")
    xi = _trailing(model, xi)
    v = _slot_first(xi)
    inv_mw = -1.0 / params.m_omega
    # nonzero entries {(chart row, dual column): value}
    if model is ModelId.CENTRAL1:
        entries = {(0, 1): 1.0, (1, 2): inv_mw}
    elif model is ModelId.CENTRAL2:
        h = v[5]
        _require_nonzero(h, "h", model)
        entries = {(0, 1): 1.0, (1, 2): inv_mw, (2, 4): 1.0,
                   (3, 3): -1.0 / (h * params.omega)}
    elif model is ModelId.NONCENTRAL:
        f = v[4:6]
        fsq = _dot(f, f)
        if fsq.min() < DEG_TOL**2:
            raise ChartDegeneracyError("noncentral chart needs f > 0")
        entries = {(0, 0): 1.0, (1, 4): -f[1] / fsq, (1, 5): f[0] / fsq,
                   (2, 1): 1.0, (3, 2): inv_mw}
    else:
        k = v[7]
        _require_nonzero(k, "k", model)
        entries = {(0, 1): 1.0, (1, 2): 1.0, (2, 4): -1.0 / k,
                   (3, 5): -1.0 / k}
    jac = np.zeros(xi.shape[:-1] + (len(CHART_COORDS[model]), xi.shape[-1]))
    for (row, col), value in entries.items():
        jac[..., row, col] = value
    return jac


def _noncentral_poisson(z, kappa: float, mw: float) -> np.ndarray:
    """chart_poisson at one noncentral point z (4,), kappa and m omega given.

    Written as literals, which is about twice as fast as filling a stack;
    the noncentral Hamiltonian right-hand side calls it per evaluation.
    """
    jp = mw * z[3]
    jq = -z[2] / mw
    return np.array([[0.0, 1.0, jp, jq],
                     [-1.0, 0.0, 0.0, 0.0],
                     [-jp, 0.0, 0.0, kappa],
                     [-jq, 0.0, -kappa, 0.0]])


def chart_poisson(model: ModelId, z, labels,
                  params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Poisson matrices Pi_{ab} = {z_a, z_b} (..., d, d) at chart points z.

    z is (..., d) and labels (..., c), the orbits' Casimir values in
    CASIMIR_NAMES order; their batch shapes broadcast.  Closed form of the
    pushforward -Jac K Jac^T, with kappa = charge / (m omega r**2) (charge
    l for central1, h elsewhere; kappa = 1 on default orbits):

    central1    {p, q} = kappa
    central2    {p, q} = kappa, {l, alpha} = 1
    noncentral  {j, phi_f} = 1, {j, p} = m omega q, {j, q} = -p / (m omega),
                {p, q} = kappa
    double      {p1, p2} = -h / r**2, {p_i, q^j} = delta_i^j

    The Hooke constant k cancels from the double chart: q = -f / k meets
    [P_i, F_j] = K delta_ij.  Only the noncentral matrix depends on z.
    """
    if model not in CHART_COORDS:
        raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")
    z = np.asarray(z, dtype=float)
    labels = np.asarray(labels, dtype=float)
    batch = _batch_shape(model, z, labels)
    mw = params.m_omega
    r2 = params.r**2
    charge = labels[..., 0]
    kappa = charge / (mw * r2)
    # entries above the diagonal {(a, b): {z_a, z_b}}
    if model is ModelId.CENTRAL1:
        upper = {(0, 1): kappa}
    elif model is ModelId.CENTRAL2:
        upper = {(0, 1): kappa, (2, 3): 1.0}
    elif model is ModelId.NONCENTRAL:
        upper = {(0, 1): 1.0, (0, 2): mw * z[..., 3], (0, 3): -z[..., 2] / mw,
                 (2, 3): kappa}
    else:
        upper = {(0, 1): -(charge / r2), (0, 2): 1.0, (1, 3): 1.0}
    d = z.shape[-1]
    pi = np.zeros(batch + (d, d))
    for (a, b), value in upper.items():
        pi[..., a, b] = value
        pi[..., b, a] = -value
    return pi


def poisson_tensor(model: ModelId, point: OrbitPoint,
                   params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Poisson matrices (..., d, d) of the chart coordinates at orbit points.

    chart_poisson at the points' coordinates and Casimir labels.  A point
    of another model raises ModelMismatchError.
    """
    _check_point(model, point)
    return chart_poisson(model, point.coords, point.labels, params)


def phase_space_blocks(model: ModelId, point: OrbitPoint,
                       params: ModelParams = DEFAULT_PARAMS
                       ) -> dict[str, np.ndarray]:
    """F, G and coupling blocks of the chart tensor on (p, q) splits.

    For charts made of momentum/position pairs this returns the pieces of
    the generic noncommutative structure {q^i, q^j} = G^ij,
    {q^i, p_j} = delta^i_j, {p_i, p_j} = F_ij.  The double model carries
    the magnetic block F = -m omega eps and a vanishing G; central1 is the
    canonical 1-pair case.  The G slot is structural plumbing: no built-in
    model produces a nonzero dual magnetic block.  A stacked point gives
    stacked blocks.
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
        "momentum_momentum": pi[..., p_idx, :][..., p_idx],
        "position_position": pi[..., q_idx, :][..., q_idx],
        "position_momentum": pi[..., q_idx, :][..., p_idx],
    }


def omega_chart(model: ModelId, point: OrbitPoint,
                params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Symplectic matrices of the chart, the inverses of poisson_tensor."""
    pi = poisson_tensor(model, point, params)
    # a determinant beyond the float range is inf, which is not singular
    with np.errstate(over="ignore"):
        det = np.abs(np.linalg.det(pi)).min()
    if det < DEG_TOL:
        raise SingularityError(
            f"chart Poisson tensor is singular (|det| = {det:.3e})"
        )
    return np.linalg.inv(pi)


def gradient_fd(f):
    """Gradient of a scalar chart function by central differences.

    Steps are 1e-6 * (1 + |z_i|) per coordinate, balancing truncation and
    rounding at double precision.  f maps chart points (..., d) to (...),
    and the gradient of a stack of points is the stack of gradients.
    """
    def grad(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        for i in range(z.shape[-1]):
            step = 1e-6 * (1.0 + np.abs(z[..., i]))
            zp, zm = z.copy(), z.copy()
            zp[..., i] += step
            zm[..., i] -= step
            out[..., i] = (f(zp) - f(zm)) / (2.0 * step)
        return out
    return grad


def poisson_bracket(model: ModelId, fgrad, ggrad, point: OrbitPoint,
                    params: ModelParams = DEFAULT_PARAMS):
    """{f, g} = grad f . Pi . grad g at the chart point.

    fgrad and ggrad map chart coordinates (..., d) to gradients (..., d);
    use gradient_fd to lift plain scalar functions.  One point gives a
    float, a stacked point an array of the batch shape.
    """
    z = point.coords
    pi = poisson_tensor(model, point, params)
    fg, gg = np.asarray(fgrad(z)), np.asarray(ggrad(z))
    out = (fg[..., None, :] @ pi @ gg[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


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
    """Canonical chart (energy, time, p, q) of noncentral orbit points.

    energy = j omega + p**2 / (2 m) + m omega**2 q**2 / 2 and
    time = phi_f / omega; in this chart {energy, time} = {p, q} = 1 and
    every other coordinate bracket vanishes.
    """
    if point.model is not ModelId.NONCENTRAL:
        raise gm.ModelMismatchError("canonical chart applies to the "
                                    "noncentral model")
    j, phi_f, p, q = _slot_first(np.asarray(point.coords, dtype=float))
    w = params.omega
    energy = j * w + p**2 / (2.0 * params.m) + 0.5 * params.m * w**2 * q**2
    return _stack((energy, phi_f / w, p, q))


def canonical_energy_gradient(params: ModelParams = DEFAULT_PARAMS):
    """Gradient (in the noncentral chart) of the canonical energy function.

    The gradient (omega, 0, p / m, m omega**2 q) maps chart points (..., 4)
    to gradients (..., 4).
    """
    w, m = params.omega, params.m
    # z / scale * factor + offset: inf zeroes the j and phi_f slots
    scale = np.array([np.inf, np.inf, m, 1.0])
    factor = np.array([1.0, 1.0, 1.0, m * w**2])
    offset = np.array([w, 0.0, 0.0, 0.0])

    def grad(z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) / scale * factor + offset
    return grad
