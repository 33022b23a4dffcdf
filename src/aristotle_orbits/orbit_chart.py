"""Orbit charts, Casimir invariants, restricted forms and Poisson brackets.

Charts (coordinates on the maximal coadjoint orbits)
----------------------------------------------------
central1    (p, q) with p = p1, q = -p2 / (m omega); labels (l, E, s).
central2    (p, q, l, alpha) with alpha = -E / (h omega); labels (h, s).
noncentral  (j, phi_f, p, q) with f1 = f cos(phi_f), f2 = f sin(phi_f);
            labels (h, f, U).
double      (p1, p2, q1, q2) with q = -f / k; labels (h, k, s, U).

Each chart model is defined in one place, its Chart record in CHARTS: its
names (coordinates, Casimirs, the omega_matrix basis, whether its
Poisson tensor is constant) and its closed forms (Casimirs, chart map,
dual map, Jacobian, Poisson entries, energy coefficients).  The public
functions below validate their input, look up the record once, call its
closed form and stack the result; the public tables CHART_COORDS,
CASIMIR_NAMES and OMEGA_BASIS are views of the records.  A model without
a record (base) raises ModelMismatchError.

An OrbitPoint holds arrays: coords (..., d) in CHART_COORDS order and
labels (..., c), the orbit's Casimir values in CASIMIR_NAMES order.
Leading axes are batch axes, as for the group elements of group_models:
casimirs, chart_from_dual and dual_from_chart are written once per chart
with slot-first views, so one call maps a single point or a stack of
points, and a stacked call equals the row-by-row calls bit for bit.  The
matrix-valued maps follow the same rule with two trailing matrix axes:
chart_jacobian returns (..., d, n), and chart_poisson, poisson_tensor,
omega_matrix and omega_chart return (..., d, d) (poisson_bracket a value
per point).  A point of another model raises ModelMismatchError; coords
and labels whose trailing lengths are wrong or whose batch shapes do not
broadcast raise a one-line DimensionMismatchError.

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

from collections import namedtuple

import numpy as np

from .lie_core import (DEFAULT_PARAMS, DimensionMismatchError, ModelParams,
                       _Record, cross2, kirillov_matrix)
from . import group_models as gm
from .group_models import (ModelId, _broadcast_shape, _dot, _slot_first,
                           _trailing)

DEG_TOL = 1e-12


class ChartDegeneracyError(ValueError):
    """The dual point sits where the chart (or a Casimir) is undefined."""


class SingularityError(ArithmeticError):
    """A restricted form is singular, or a needed value overflows.

    The values are Casimir labels, chart coordinates, brackets, or the
    1 / r**2 of the structure constants that verify checks.
    """


class Chart(namedtuple("Chart", (
        "coords", "casimir_names", "omega_basis", "constant_poisson",
        "casimirs", "chart_map", "dual_map", "jacobian", "poisson", "energy",
        "singular_form"),
        defaults=(None,))):
    """One chart model: its names and its closed forms.

    Names: coords (CHART_COORDS), casimir_names (CASIMIR_NAMES),
    omega_basis (OMEGA_BASIS), and constant_poisson, whether chart_poisson
    is the same at every point of an orbit.

    Closed forms read slot-first arrays (group_models._slot_first): dual
    points v, chart points z, and labels lab by name.  Each returns slot
    values, or entries {(row, column): value}:

    casimirs(v, r2)           the Casimir values at v, r2 = r**2
    chart_map(v, params)      the chart coordinates of v
    dual_map(z, lab, params)  the dual slots of z, with j and E from lab
    jacobian(v, params)       the nonzero entries of chart_jacobian
    poisson(z, charge, params)  the entries of chart_poisson above the
                              diagonal, charge the first label
    energy(lab, params)       the coefficients of
                              dynamics.energy_hamiltonian: (hessian, slope,
                              offset) of a QuadraticHamiltonian on a chart
                              with a constant Poisson tensor, else
                              (f, mw_eff, U) of a NoncentralEnergy

    singular_form holds the dual slot, and its name, whose vanishing makes
    omega_matrix singular, or None (the default) for a chart without one.
    """

    __slots__ = ()


# central1: dual (j, p1, p2, E, l); chart (p, q); labels (l, E, s)

def _central1_casimirs(v, r2):
    j, p, E, l = v[0], v[1:3], v[3], v[4]
    _require_nonzero(l, "l", ModelId.CENTRAL1)
    return l, E, j + _dot(p, p) * r2 / (2.0 * l)


# central2: dual (j, p1, p2, E, l, h); chart (p, q, l, alpha); labels (h, s)

def _central2_casimirs(v, r2):
    j, p, h = v[0], v[1:3], v[5]
    _require_nonzero(h, "h", ModelId.CENTRAL2)
    return h, j + _dot(p, p) * r2 / (2.0 * h)


def _central2_dual(z, lab, params):
    p, q, l, alpha = z
    h = lab["h"]
    return (lab["j"], p, -params.m_omega * q, -alpha * h * params.omega, l, h)


def _central2_jacobian(v, params):
    h = v[5]
    _require_nonzero(h, "h", ModelId.CENTRAL2)
    return {(0, 1): 1.0, (1, 2): -1.0 / params.m_omega, (2, 4): 1.0,
            (3, 3): -1.0 / (h * params.omega)}


# noncentral: dual (j, p1, p2, E, f1, f2, h); chart (j, phi_f, p, q);
# labels (h, f, U)

def _noncentral_casimirs(v, r2):
    p, E, f, h = v[1:3], v[3], v[4:6], v[6]
    _require_nonzero(h, "h", ModelId.NONCENTRAL)
    fmag = np.hypot(f[0], f[1])
    _require_nonzero(fmag, "f", ModelId.NONCENTRAL)
    return h, fmag, E + (r2 / h) * cross2(p, f)


def _noncentral_dual(z, lab, params):
    j, phi_f, p, q = z
    f = lab["f"]
    return (j, p, -params.m_omega * q, lab["E"], f * np.cos(phi_f),
            f * np.sin(phi_f), lab["h"])


def _noncentral_jacobian(v, params):
    f = v[4:6]
    fsq = _dot(f, f)
    if fsq.min(initial=np.inf) < DEG_TOL**2:
        raise ChartDegeneracyError("noncentral chart needs f > 0")
    return {(0, 0): 1.0, (1, 4): -f[1] / fsq, (1, 5): f[0] / fsq,
            (2, 1): 1.0, (3, 2): -1.0 / params.m_omega}


def _noncentral_poisson_entries(z, charge, params):
    mw = params.m_omega
    return {(0, 1): 1.0, (0, 2): mw * z[3], (0, 3): -z[2] / mw,
            (2, 3): charge / (mw * params.r**2)}


# double: dual (j, p1, p2, E, f1, f2, h, k); chart (p1, p2, q1, q2) with
# q = -f / k; labels (h, k, s, U)

def _double_casimirs(v, r2):
    j, p, E, f, h, k = v[0], v[1:3], v[3], v[4:6], v[6], v[7]
    _require_nonzero(k, "k", ModelId.DOUBLE)
    q = -f / k
    qq = _dot(q, q)
    return h, k, j + cross2(p, q) - h * qq / (2.0 * r2), E - 0.5 * k * qq


def _double_dual(z, lab, params):
    p1, p2, q1, q2 = z
    k = lab["k"]
    return (lab["j"], p1, p2, lab["E"], -k * q1, -k * q2, lab["h"], k)


def _double_jacobian(v, params):
    k = v[7]
    _require_nonzero(k, "k", ModelId.DOUBLE)
    return {(0, 1): 1.0, (1, 2): 1.0, (2, 4): -1.0 / k, (3, 5): -1.0 / k}


#: The chart model records; CHART_COORDS, CASIMIR_NAMES and OMEGA_BASIS
#: are views of them.
CHARTS: dict[ModelId, Chart] = {
    ModelId.CENTRAL1: Chart(
        ("p", "q"), ("l", "E", "s"), ("P1", "P2"), constant_poisson=True,
        casimirs=_central1_casimirs,
        chart_map=lambda v, params: (v[1], -v[2] / params.m_omega),
        dual_map=lambda z, lab, params: (lab["j"], z[0],
                                         -params.m_omega * z[1], lab["E"],
                                         lab["l"]),
        jacobian=lambda v, params: {(0, 1): 1.0,
                                    (1, 2): -1.0 / params.m_omega},
        poisson=lambda z, charge, params: {
            (0, 1): charge / (params.m_omega * params.r**2)},
        energy=lambda lab, params: (np.zeros((2, 2)), np.zeros(2), lab["E"])),
    ModelId.CENTRAL2: Chart(
        ("p", "q", "l", "alpha"), ("h", "s"), ("P1", "P2", "H", "S"),
        constant_poisson=True, casimirs=_central2_casimirs,
        chart_map=lambda v, params: (v[1], -v[2] / params.m_omega, v[4],
                                     -v[3] / (v[5] * params.omega)),
        dual_map=_central2_dual,
        jacobian=_central2_jacobian,
        poisson=lambda z, charge, params: {
            (0, 1): charge / (params.m_omega * params.r**2), (2, 3): 1.0},
        energy=lambda lab, params: (
            np.zeros((4, 4)), [0.0, 0.0, 0.0, -lab["h"] * params.omega])),
    ModelId.NONCENTRAL: Chart(
        ("j", "phi_f", "p", "q"), ("h", "f", "U"), ("J", "F1", "P1", "P2"),
        constant_poisson=False,
        casimirs=_noncentral_casimirs,
        chart_map=lambda v, params: (v[0], np.arctan2(v[5], v[4]), v[1],
                                     -v[2] / params.m_omega),
        dual_map=_noncentral_dual,
        jacobian=_noncentral_jacobian,
        poisson=_noncentral_poisson_entries,
        energy=lambda lab, params: (lab["f"], lab["h"] / params.r**2,
                                    lab["U"]),
        singular_form=(5, "f*sin(phi_f)")),
    ModelId.DOUBLE: Chart(
        ("p1", "p2", "q1", "q2"), ("h", "k", "s", "U"),
        ("P1", "P2", "F1", "F2"), constant_poisson=True,
        casimirs=_double_casimirs,
        chart_map=lambda v, params: (v[1], v[2], -v[4] / v[7],
                                     -v[5] / v[7]),
        dual_map=_double_dual,
        jacobian=_double_jacobian,
        poisson=lambda z, charge, params: {
            (0, 1): -(charge / params.r**2), (0, 2): 1.0, (1, 3): 1.0},
        energy=lambda lab, params: (np.diag([0.0, 0.0, lab["k"], lab["k"]]),
                                    np.zeros(4), lab["U"])),
}

CHART_COORDS = {model: c.coords for model, c in CHARTS.items()}
CASIMIR_NAMES = {model: c.casimir_names for model, c in CHARTS.items()}
#: Generator directions spanning the orbit, used by omega_matrix.
OMEGA_BASIS = {model: c.omega_basis for model, c in CHARTS.items()}

#: Dual slot of j (0) or E (3) that a Casimir carries with unit weight:
#: s = j + ..., U = E + ... and, on central1, E itself.
_HIDDEN_SLOT = {"s": 0, "U": 3, "E": 3}

#: The keywords orbit_point takes, in CASIMIR_NAMES order: each charge by
#: its own name, and in place of s or U the hidden dual coordinate it
#: carries (j or E; j is a noncentral chart coordinate, and central2's
#: alpha fixes E).
_LABEL_KEYS = {
    model: tuple(gm.DUAL_LABELS[model][_HIDDEN_SLOT[name]]
                 if name in _HIDDEN_SLOT else name for name in names)
    for model, names in CASIMIR_NAMES.items()}


class OrbitPoint(_Record):
    """Chart points and the Casimir labels of their orbits.

    coords (..., d) follows CHART_COORDS[model] and labels (..., c)
    CASIMIR_NAMES[model]; their batch shapes broadcast together.
    """

    __slots__ = ("model", "coords", "labels")

    def __init__(self, model: ModelId, coords: np.ndarray,
                 labels: np.ndarray):
        self._set(model=model, coords=coords, labels=labels)


def _chart(model: ModelId) -> Chart:
    """The model's chart record.

    A model without one (base) raises ModelMismatchError.
    """
    try:
        return CHARTS[model]
    except KeyError:
        raise gm.ModelMismatchError(
            f"model {model.value} has no orbit chart; choose one of "
            f"{', '.join(m.value for m in CHARTS)}") from None


def _require_nonzero(value, name: str, model: ModelId) -> None:
    smallest = abs(value).min(initial=np.inf)
    if smallest < DEG_TOL:
        raise ChartDegeneracyError(
            f"{model.value}: |{name}| = {smallest:.3e} is below the "
            f"degeneracy threshold {DEG_TOL:.0e}"
        )


def _stack(parts) -> np.ndarray:
    """Slot values stacked along a new last axis, undoing _slot_first.

    The parts share one batch shape; _dual_point broadcasts its own.
    """
    out = np.array(parts, dtype=float)
    return out.transpose(*range(1, out.ndim), 0)


def _antisymmetric(upper: dict, shape: tuple[int, ...]) -> np.ndarray:
    """Antisymmetric matrices of the given shape (..., d, d).

    upper {(a, b): value} holds the entries above the diagonal; their
    negatives go below it, and every other entry is zero.
    """
    out = np.zeros(shape)
    for (a, b), value in upper.items():
        out[..., a, b] = value
        out[..., b, a] = -value
    return out


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

    Input range: |p|^2 (central1, central2) and |q|^2 (double) are formed
    before any division, so a component of p or q beyond about 1.3e154 in
    magnitude raises SingularityError even where the Casimir itself is
    representable; so does any value beyond the float range.
    """
    chart = _chart(model)
    v = _slot_first(_trailing(model, xi))
    # an overflow is found by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        values = _stack(chart.casimirs(v, params.r**2))
    if not np.isfinite(values).all():
        raise SingularityError(f"{model.value}: Casimir labels are not finite")
    return values


def chart_from_dual(model: ModelId, xi,
                    params: ModelParams = DEFAULT_PARAMS) -> OrbitPoint:
    """Chart points of the dual points xi (..., n), labelled by casimirs.

    Raises ChartDegeneracyError if any slot of xi is not finite, and
    SingularityError where a finite xi has chart coordinates or Casimirs
    beyond the float range (a momentum divided by a tiny m omega, say).
    """
    xi = _trailing(model, xi)
    if not np.isfinite(xi).all():
        raise ChartDegeneracyError(f"{model.value}: dual point must be finite")
    labels = casimirs(model, xi, params)
    # an overflow is found by the check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coords = _stack(CHARTS[model].chart_map(_slot_first(xi), params))
    if not np.isfinite(coords).all():
        raise SingularityError(f"{model.value}: chart coordinates overflow")
    return OrbitPoint(model, coords, labels)


def _dual_point(model: ModelId, coords, lab: dict,
                params: ModelParams) -> np.ndarray:
    """Dual points (..., n) of chart coordinates (..., d).

    lab maps the charges (l or h, f, k) and the hidden j and E to values
    that broadcast against the coordinates' batch shape.  Finite
    coordinates and labels can still give dual slots or Casimirs beyond the
    float range (coordinates scaled by a huge m omega, say), which the
    callers' casimirs raises as SingularityError.
    """
    z = _slot_first(np.asarray(coords, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        parts = CHARTS[model].dual_map(z, lab, params)
    # the labels (numbers or arrays) of one orbit can meet the coordinates
    # of a stack of points
    if len({getattr(p, "shape", ()) for p in parts}) > 1:
        parts = np.broadcast_arrays(*parts)
    return _stack(parts)


def dual_from_chart(point: OrbitPoint,
                    params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Dual vectors (..., n) reconstructed from chart points and labels.

    The coordinates and the charges fix every dual slot but the hidden j
    and E.  Each Casimir that carries one of them does so with unit
    weight (s = j + ..., U = E + ..., and E on central1), so the slot is
    the label minus that Casimir evaluated with j = E = 0.  Batch shapes
    of coords and labels that do not broadcast raise DimensionMismatchError,
    and Casimirs beyond the float range raise SingularityError.
    """
    model = point.model
    names = _chart(model).casimir_names
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
    Keywords per chart, each a number or an array that broadcasts against
    the batch shape of coords: central1 l, E, j; central2 h, j;
    noncentral h, f, E; double h, k, j, E.  The charges are stored as
    given; s and U are the casimirs of the dual point.
    Coordinates of the wrong length, other keywords, non-finite input and
    a noncentral force magnitude f <= 0 raise ChartDegeneracyError;
    Casimirs that overflow raise SingularityError.
    """
    chart = _chart(model)
    keys = _LABEL_KEYS[model]
    unknown = sorted(set(labels) - set(keys))
    if unknown:
        raise ChartDegeneracyError(f"{model.value} orbit labels are "
                                   f"{', '.join(keys)}; got {unknown}")
    z = np.array(coords, dtype=float)
    d = len(chart.coords)
    if z.shape[-1:] != (d,):
        raise ChartDegeneracyError(f"{model.value} chart needs {d} "
                                   f"coordinates {chart.coords}, got shape "
                                   f"{z.shape}")
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
    if np.min(f, initial=np.inf) <= 0.0:
        # f is the magnitude |(f1, f2)|, which casimirs would report instead
        raise ChartDegeneracyError(f"{model.value} force magnitude f must be "
                                   f"positive, got {float(np.min(f))!r}")
    lab = {"l": params.l_sub, "h": params.l_sub, "f": 1.0, "k": 1.0,
           "j": 0.0, "E": 0.0, **labels}
    values = casimirs(model, _dual_point(model, z, lab, params), params)
    for i, name in enumerate(chart.casimir_names):
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
        return _broadcast_shape(zs[:-1], ls[:-1])
    except ValueError:
        raise DimensionMismatchError(
            f"{model.value}: batch shapes {zs[:-1]} of coords and "
            f"{ls[:-1]} of labels do not broadcast") from None


def _check_point(model: ModelId, point: OrbitPoint) -> Chart:
    """The model's chart record, checked against a point.

    A point of another model, or with mismatched shapes, raises.
    """
    chart = _chart(model)
    if point.model is not model:
        raise gm.ModelMismatchError(f"point belongs to {point.model.value}, "
                                    f"not {model.value}")
    _batch_shape(model, point.coords, point.labels)
    return chart


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
    chart = _check_point(model, point)
    xi = dual_from_chart(point, params)
    if chart.singular_form is not None:
        slot, factor = chart.singular_form
        smallest = np.abs(xi[..., slot]).min(initial=np.inf)
        if smallest < DEG_TOL:
            raise SingularityError(
                f"{model.value} restricted form is singular where "
                f"|{factor}| = {smallest:.3e}"
            )
    tensor = gm.structure_tensor(model, params)
    idx = [tensor.index(lab) for lab in chart.omega_basis]
    return kirillov_matrix(tensor, xi)[..., idx, :][..., idx]


def chart_jacobian(model: ModelId, xi,
                   params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Jacobians (..., d, n) of the chart coordinates at dual points (..., n).

    Derivatives along Casimir-only directions (h, k rows of the structure)
    are dropped; those directions carry a vanishing Poisson structure, so
    the pushforward -Jac K Jac^T, which the verify suite checks
    poisson_tensor against, is unaffected.  An entry that is not finite
    (1 / (m omega) where m omega underflows, say) raises SingularityError.
    """
    chart = _chart(model)
    xi = _trailing(model, xi)
    singular = SingularityError(f"{model.value}: a chart Jacobian entry is "
                                f"not finite")
    try:
        # the entries divide by m omega as Python floats, and by charges
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            entries = chart.jacobian(_slot_first(xi), params)
    except ZeroDivisionError:
        raise singular from None
    jac = np.zeros(xi.shape[:-1] + (len(chart.coords), xi.shape[-1]))
    for (row, col), value in entries.items():
        jac[..., row, col] = value
    if not np.isfinite(jac).all():
        raise singular
    return jac


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
    An entry that is not finite (kappa at a tiny m omega, say, or p / 0
    where m omega underflows to 0) raises SingularityError.
    """
    chart = _chart(model)
    z = np.asarray(z, dtype=float)
    labels = np.asarray(labels, dtype=float)
    batch = _batch_shape(model, z, labels)
    # kappa is formed only by the charts that have it; a non-finite entry
    # is found below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        upper = chart.poisson(_slot_first(z), labels[..., 0], params)
    d = z.shape[-1]
    pi = _antisymmetric(upper, batch + (d, d))
    if not np.isfinite(pi).all():
        raise SingularityError(f"{model.value}: a chart Poisson bracket "
                               f"is not finite")
    return pi


def poisson_tensor(model: ModelId, point: OrbitPoint,
                   params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Poisson matrices (..., d, d) of the chart coordinates at orbit points.

    chart_poisson at the points' coordinates and Casimir labels.  A point
    of another model raises ModelMismatchError.
    """
    _check_point(model, point)
    return chart_poisson(model, point.coords, point.labels, params)


def omega_chart(model: ModelId, point: OrbitPoint,
                params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Symplectic matrices of the chart, the inverses of poisson_tensor."""
    pi = poisson_tensor(model, point, params)
    # a determinant beyond the float range is inf, which is not singular
    with np.errstate(over="ignore"):
        det = np.abs(np.linalg.det(pi)).min(initial=np.inf)
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
    """Gradient function of the chart coordinate with the given name.

    A name that is not one of the model's chart coordinates raises
    ChartDegeneracyError, and a model without a chart ModelMismatchError.
    """
    names = _chart(model).coords
    if name not in names:
        raise ChartDegeneracyError(f"{name!r} is not a chart coordinate of "
                                   f"{model.value}; choose from {names}")
    i = names.index(name)
    n = len(names)

    def grad(z: np.ndarray) -> np.ndarray:
        e = np.zeros(n)
        e[i] = 1.0
        return e
    return grad


def canonicalize_noncentral(point: OrbitPoint,
                            params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Chart (energy, time, p, q) of noncentral orbit points.

    energy = j omega + p**2 / (2 m) + m omega**2 q**2 / 2 and
    time = phi_f / omega.  On orbits with kappa = h / (m omega r**2) = 1,
    such as orbit_point's default h, {energy, time} = {p, q} = 1 and every
    other coordinate bracket vanishes.  Elsewhere the chart is not
    canonical: its brackets miss the canonical ones by |kappa - 1|.  The
    kappa-corrected chart is ROADMAP item 3.  The energy as a Hamiltonian
    on the noncentral chart, with its gradient, is
    dynamics.canonical_hamiltonian.
    """
    if point.model is not ModelId.NONCENTRAL:
        raise gm.ModelMismatchError("canonical chart applies to the "
                                    "noncentral model")
    j, phi_f, p, q = _slot_first(np.asarray(point.coords, dtype=float))
    w = params.omega
    energy = j * w + p**2 / (2.0 * params.m) + 0.5 * params.m * w**2 * q**2
    return _stack((energy, phi_f / w, p, q))
