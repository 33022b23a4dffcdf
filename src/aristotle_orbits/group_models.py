"""The five planar models: bracket tables, group laws, adjoint and coadjoint actions.

Models
------
base        rotations, space translations and time translations of the plane,
            parameters (theta, x, t), with no extension.
central1    one central generator S; translations stop commuting,
            [P1, P2] = S / r**2, via the two-cocycle c(g, g') below.
central2    a second central generator N on top of central1.  The consistent
            bracket set is [P1, P2] = N / r**2 together with [S, H] = omega N:
            the variant that keeps [P1, P2] = S / r**2 while adding
            [S, H] = omega N fails the Jacobi identity (its defect is
            omega / r**2), and the matching group law fails associativity.
            The repaired structure reproduces the same invariants, Kirillov
            form and equations of motion, with the action coordinate l
            evolving as dl/dt = h * omega.
central2-defective
            the inconsistent variant above, kept for diagnostics only.
noncentral  non-commuting generators F1, F2 with [P_i, H] = F_i and
            [J, F_i] rotating like translations; their duals are forces.
double      central extension of noncentral by K with [P_i, F_j] = K delta_ij;
            the K dual is a Hooke constant and momenta stop commuting.

Basis orders are (J, P1, P2, H) with extension generators appended:
(..., S), (..., S, N), (..., F1, F2, S), (..., F1, F2, S, K).  Dual
coordinates follow the same order with labels
(j, p1, p2, E) then (l), (l, h), (f1, f2, h), (f1, f2, h, k).

The coadjoint action is the dual of conjugation by the inverse element,
Ad*_g = (Ad_{g^{-1}})^T on coordinates, so Ad*_{g g'} = Ad*_g Ad*_{g'} and
Ad*_{exp(sX)} = exp(s * coad_matrix(X)).  The closed forms below were
derived from the multiplication laws and are cross-checked against that
exponential series by the test suite.  Where a differently-signed variant
of a term is in circulation, the verify report lists it as a convention
note; the series oracle is authoritative here.

Each model is defined in one place, its Group record in GROUPS: its
algebra and dual labels, its brackets beyond the rotation pairs, and the
terms that its multiply, inverse, adjoint and coadjoint add to base's.
The public laws validate their input, compute the terms every model
shares (the rotated translations, and j + cross2(x, R p) and R p on the
dual), call the record's terms once and return.  bracket_table is the
rotation pairs plus the record's brackets, and the public tables
ALGEBRA_LABELS and DUAL_LABELS are views of the records.

Group elements
--------------
A group element of a model is a float array whose last axis holds its
parameters in ALGEBRA_LABELS order: the parameters of exp(s e_label) are
exactly s e_label.  The slots are

    J      P1  P2  H  S    N    F1    F2    K
    theta  x1  x2  t  phi  psi  eta1  eta2  gamma

so base is (theta, x1, x2, t), central1 appends phi, central2 (phi, psi),
noncentral (eta1, eta2, phi) and double (eta1, eta2, phi, gamma).  Algebra
and dual vectors are arrays in the same way.  Leading axes are batch axes:
multiply, inverse, cocycle, adjoint and coadjoint broadcast them like any
NumPy operation, so one call acts on a single element, on a stack of
elements, or with one element on a stack of vectors.  An array whose last
axis is not the model's dimension raises ModelMismatchError.

Everything is a pure function; results are new arrays.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple

import numpy as np

from .lie_core import (DEFAULT_PARAMS, ModelParams, StructureTensor, cross2,
                       eps_vec)


class ModelMismatchError(ValueError):
    """An element, vector or label does not belong to the requested model."""


class ModelId(enum.Enum):
    BASE = "base"
    CENTRAL1 = "central1"
    CENTRAL2 = "central2"
    NONCENTRAL = "noncentral"
    DOUBLE = "double"

    # Enum's __hash__ is Python code (it hashes the name) and runs on every
    # GROUPS, CHARTS and dim lookup; members are singletons that compare by
    # identity, so the identity hash keeps every dict and set lookup
    __hash__ = object.__hash__

    @staticmethod
    def from_name(name: str) -> "ModelId":
        try:
            return ModelId(name.lower())
        except ValueError:
            raise ModelMismatchError(f"unknown model name {name!r}") from None


def _trailing(model: ModelId, a) -> np.ndarray:
    """a as a float array, checked to end in an axis of the model's length."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (dim(model),):
        raise ModelMismatchError(
            f"array of shape {a.shape} does not end in the {dim(model)} "
            f"slots of model {model.value}")
    return a


def _slot_first(a: np.ndarray) -> np.ndarray:
    """View of a with its slot axis first.

    Scalar slots then have the batch shape and 2-vector slots a leading
    axis of length 2, so the closed forms read as on single elements.
    """
    return a.transpose(-1, *range(a.ndim - 1))


def _broadcast_shape(shape: tuple, shape2: tuple) -> tuple:
    """The shape that shape and shape2 broadcast to.

    np.broadcast_shapes is Python code in numpy, so it runs only where the
    shapes differ.
    """
    return shape if shape == shape2 else np.broadcast_shapes(shape, shape2)


def _slots(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot-first views to read of a and b, broadcast together.

    Arrays of one shape are viewed as they are, and np.broadcast_arrays
    (Python code in numpy) runs only where the shapes differ.  The group
    law records only read these views.
    """
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    return _slot_first(a), _slot_first(b)


def _rotate(c, s, v) -> np.ndarray:
    """R(theta) v for c = cos(theta), s = sin(theta), counterclockwise.

    v is a stack of 2-vectors with components first.  The group laws
    evaluate cos and sin once per call and pass (c, -s) for R(-theta):
    numpy's cos is even and its sin odd, bit for bit, so that equals the
    rotation by -theta.
    """
    return np.array((c * v[0] - s * v[1], s * v[0] + c * v[1]))


def _dot(a, b):
    """Euclidean product of 2-vectors with components first."""
    return a[0] * b[0] + a[1] * b[1]


def _cocycle(c, s, x, x2, params: ModelParams) -> np.ndarray:
    """cocycle from cos and sin of the first element's theta."""
    return cross2(_rotate(c, -s, x), x2) / (2.0 * params.r**2)


def _no_terms(*args) -> None:
    """The terms of a law that adds nothing to the base model's."""


class Group(namedtuple("Group", (
        "labels", "dual_labels", "brackets", "coadjoint", "multiply",
        "inverse", "adjoint"), defaults=(_no_terms,) * 3)):
    """One group model: its labels, its brackets and its group-law terms.

    labels and dual_labels are its ALGEBRA_LABELS and DUAL_LABELS, and
    brackets(inv_r2, omega) returns its nonzero brackets beyond the
    rotation pairs [J, P_i], with inv_r2 = 1 / r**2.

    The law terms read slot-first views (_slot_first) of the law's
    arguments a (the element), b, d and v, and write the slot-first view o
    of its result; c and s are the cosine and sine of a's theta, the sine
    negated for inverse.  multiply, inverse and adjoint find in o what the
    base model's law puts there, and add the model's extension terms;
    they default to _no_terms.  coadjoint finds v in o and writes j and p
    (o[0] and o[1:3]) itself, from j0 = j + cross2(x, Rp) and Rp = R(theta)
    p, so that each sum keeps its order:

    coadjoint(o, a, v, c, s, j0, Rp, params)
    multiply(o, a, b, c, s, Rx2, params)    Rx2 = R(theta) x2
    inverse(o, a, c, s, params)
    adjoint(o, a, d, c, s, Rdtr, params)    Rdtr = R(theta) d[1:3]
    """

    __slots__ = ()


def _adjoint_cocycle(a, d, c, s, params):
    """The cocycle's term of the adjoint action, on the slot it feeds."""
    x, r2 = a[1:3], params.r**2
    return (cross2(_rotate(c, -s, x), d[1:3]) / r2
            - _dot(x, x) / (2 * r2) * d[0])


# base: no extension; its coadjoint law writes j and p

def _base_coadjoint(o, a, v, c, s, j0, Rp, params):
    o[0] = j0
    o[1:3] = Rp


# central1: [P1, P2] = S / r**2; the cocycle twists phi

def _central1_multiply(o, a, b, c, s, Rx2, params):
    o[4] += _cocycle(c, s, a[1:3], b[1:3], params)


def _central1_adjoint(o, a, d, c, s, Rdtr, params):
    o[4] += _adjoint_cocycle(a, d, c, s, params)


def _central1_coadjoint(o, a, v, c, s, j0, Rp, params):
    x, l, r2 = a[1:3], v[4], params.r**2
    o[0] = j0 - l * _dot(x, x) / (2 * r2)
    o[1:3] = Rp + (l / r2) * eps_vec(x)


# central2: [P1, P2] = N / r**2 and [S, H] = omega N.  The cocycle feeds
# the new center N (psi); the S coordinate phi composes additively and
# pairs with H through N.

def _central2_multiply(o, a, b, c, s, Rx2, params):
    o[5] += (_cocycle(c, s, a[1:3], b[1:3], params)
             - params.omega * a[3] * b[4])


def _central2_inverse(o, a, c, s, params):
    o[5] -= params.omega * a[3] * a[4]


def _central2_adjoint(o, a, d, c, s, Rdtr, params):
    o[5] += (_adjoint_cocycle(a, d, c, s, params) - params.omega * a[3] * d[4]
             + params.omega * a[4] * d[3])


def _central2_coadjoint(o, a, v, c, s, j0, Rp, params):
    x, h, r2 = a[1:3], v[5], params.r**2
    o[0] = j0 - h * _dot(x, x) / (2 * r2)
    o[1:3] = Rp + (h / r2) * eps_vec(x)
    o[3] = v[3] - h * params.omega * a[4]
    o[4] = v[4] + h * params.omega * a[3]


# noncentral and double: the forces F_i, with [P_i, H] = F_i; double adds
# [P_i, F_j] = K delta_ij

def _force_brackets(inv_r2, omega):
    return {("J", "F1"): {"F2": 1.0}, ("J", "F2"): {"F1": -1.0},
            ("P1", "P2"): {"S": inv_r2}, ("P1", "H"): {"F1": 1.0},
            ("P2", "H"): {"F2": 1.0}}


def _noncentral_multiply(o, a, b, c, s, Rx2, params):
    o[6] += _cocycle(c, s, a[1:3], b[1:3], params)
    o[4:6] = _rotate(c, s, b[4:6]) - Rx2 * a[3] + a[4:6]


def _noncentral_inverse(o, a, c, s, params):
    o[4:6] = -_rotate(c, s, a[4:6] + a[1:3] * a[3])


def _noncentral_adjoint(o, a, d, c, s, Rdtr, params):
    x, t, eta, dth, dt = a[1:3], a[3], a[4:6], d[0], d[3]
    Rdeta = _rotate(c, s, d[4:6])
    o[6] += _adjoint_cocycle(a, d, c, s, params)
    o[4:6] = Rdeta - t * Rdtr + eps_vec(eta) * dth + x * dt


def _noncentral_coadjoint(o, a, v, c, s, j0, Rp, params):
    x, t, eta, h, r2 = a[1:3], a[3], a[4:6], v[6], params.r**2
    Rf = _rotate(c, s, v[4:6])
    o[0] = j0 + cross2(eta + x * t, Rf) - h * _dot(x, x) / (2 * r2)
    o[1:3] = Rp + t * Rf + (h / r2) * eps_vec(x)
    o[3] = v[3] - _dot(x, Rf)
    o[4:6] = Rf


def _double_multiply(o, a, b, c, s, Rx2, params):
    x, eta, t2 = a[1:3], a[4:6], b[3]
    Reta2 = _rotate(c, s, b[4:6])
    o[6] += _cocycle(c, s, x, b[1:3], params)
    o[4:6] = Reta2 + eta + x * t2
    o[7] += 0.5 * _dot(x, Reta2) - 0.5 * _dot(eta + x * t2, Rx2)


def _double_inverse(o, a, c, s, params):
    o[4:6] = -_rotate(c, s, a[4:6] - a[1:3] * a[3])


def _double_adjoint(o, a, d, c, s, Rdtr, params):
    x, t, eta, dth, dt = a[1:3], a[3], a[4:6], d[0], d[3]
    Rdeta = _rotate(c, s, d[4:6])
    o[6] += _adjoint_cocycle(a, d, c, s, params)
    o[4:6] = Rdeta - t * Rdtr + eps_vec(eta - x * t) * dth + x * dt
    o[7] += (_dot(x, Rdeta) - _dot(eta, Rdtr) + cross2(x, eta) * dth
             + 0.5 * _dot(x, x) * dt)


def _double_coadjoint(o, a, v, c, s, j0, Rp, params):
    x, t, eta, h, k, r2 = a[1:3], a[3], a[4:6], v[6], v[7], params.r**2
    xx = _dot(x, x)
    Rf = _rotate(c, s, v[4:6])
    o[0] = (j0 + cross2(eta, Rf) + k * cross2(x, eta)
            - h * xx / (2 * r2))
    o[1:3] = Rp + t * Rf + k * (eta - x * t) + (h / r2) * eps_vec(x)
    o[3] = v[3] - _dot(x, Rf) + 0.5 * k * xx
    o[4:6] = Rf - k * x


#: The group model records; ALGEBRA_LABELS and DUAL_LABELS are views of
#: them.
GROUPS: dict[ModelId, Group] = {
    ModelId.BASE: Group(
        ("J", "P1", "P2", "H"), ("j", "p1", "p2", "E"),
        brackets=lambda inv_r2, omega: {}, coadjoint=_base_coadjoint),
    ModelId.CENTRAL1: Group(
        ("J", "P1", "P2", "H", "S"), ("j", "p1", "p2", "E", "l"),
        brackets=lambda inv_r2, omega: {("P1", "P2"): {"S": inv_r2}},
        multiply=_central1_multiply, adjoint=_central1_adjoint,
        coadjoint=_central1_coadjoint),
    ModelId.CENTRAL2: Group(
        ("J", "P1", "P2", "H", "S", "N"), ("j", "p1", "p2", "E", "l", "h"),
        brackets=lambda inv_r2, omega: {("P1", "P2"): {"N": inv_r2},
                                        ("S", "H"): {"N": omega}},
        multiply=_central2_multiply, inverse=_central2_inverse,
        adjoint=_central2_adjoint, coadjoint=_central2_coadjoint),
    ModelId.NONCENTRAL: Group(
        ("J", "P1", "P2", "H", "F1", "F2", "S"),
        ("j", "p1", "p2", "E", "f1", "f2", "h"),
        brackets=_force_brackets,
        multiply=_noncentral_multiply, inverse=_noncentral_inverse,
        adjoint=_noncentral_adjoint, coadjoint=_noncentral_coadjoint),
    ModelId.DOUBLE: Group(
        ("J", "P1", "P2", "H", "F1", "F2", "S", "K"),
        ("j", "p1", "p2", "E", "f1", "f2", "h", "k"),
        brackets=lambda inv_r2, omega: {**_force_brackets(inv_r2, omega),
                                        ("P1", "F1"): {"K": 1.0},
                                        ("P2", "F2"): {"K": 1.0}},
        multiply=_double_multiply, inverse=_double_inverse,
        adjoint=_double_adjoint, coadjoint=_double_coadjoint),
}

ALGEBRA_LABELS = {model: g.labels for model, g in GROUPS.items()}
DUAL_LABELS = {model: g.dual_labels for model, g in GROUPS.items()}


def dim(model: ModelId) -> int:
    return len(ALGEBRA_LABELS[model])


def bracket_table(model: ModelId, params: ModelParams = DEFAULT_PARAMS) -> dict:
    """Nonzero Lie brackets {(a, b): {out: coeff}} of the model.

    The rotation generator acts as [J, V1] = V2, [J, V2] = -V1 on each
    translation pair, and [P1, P2] carries the 1/r**2 extension charge;
    the model's Group record gives every bracket but [J, P_i].
    """
    return {("J", "P1"): {"P2": 1.0}, ("J", "P2"): {"P1": -1.0},
            **GROUPS[model].brackets(1.0 / params.r**2, params.omega)}


def structure_tensor(model: ModelId,
                     params: ModelParams = DEFAULT_PARAMS) -> StructureTensor:
    """Structure constants of the model in its documented basis order.

    Built once per (model, params) and shared: the array is read-only, so
    a caller that perturbs it works on a copy.
    """
    return _structure_tensor(model, params)


# a plain function in front of the cache keeps structure_tensor a function,
# which is what tools that wrap the package's public functions look for
@functools.lru_cache(maxsize=64)
def _structure_tensor(model: ModelId, params: ModelParams) -> StructureTensor:
    tensor = StructureTensor.from_brackets(ALGEBRA_LABELS[model],
                                           bracket_table(model, params))
    tensor.c.flags.writeable = False
    return tensor


def defective_central2_tensor(params: ModelParams = DEFAULT_PARAMS) -> StructureTensor:
    """The inconsistent central2 variant with [P1, P2] = S / r**2 kept.

    Not a Lie algebra: the (P1, P2, H) cyclic sum leaves omega / r**2 on N.
    Exposed for the diagnostic checks of the verify command.
    """
    table = bracket_table(ModelId.CENTRAL2, params)
    table[("P1", "P2")] = {"S": 1.0 / params.r**2}
    return StructureTensor.from_brackets(ALGEBRA_LABELS[ModelId.CENTRAL2], table)


def identity_element(model: ModelId) -> np.ndarray:
    """The neutral element: every parameter of the model is zero."""
    return np.zeros(dim(model))


def cocycle(g, g2, params: ModelParams = DEFAULT_PARAMS):
    """Two-cocycle c(g, g') = cross2(R(-theta) x, x') / (2 r**2) on base elements.

    Reads only theta and x, so it applies to the elements of every model.
    Twists the phi component of every extended multiplication law and
    satisfies c(g, g') + c(g g', g'') = c(g', g'') + c(g, g' g'').
    """
    a, b = _slots(np.asarray(g, dtype=float), np.asarray(g2, dtype=float))
    return _cocycle(np.cos(a[0]), np.sin(a[0]), a[1:3], b[1:3], params)


def multiply(model: ModelId, g, g2,
             params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Composition g * g2 by the model's closed-form multiplication law.

    theta, t and the extension parameters start from their sums; the
    translation slots rotate and the cocycle twists phi (psi on central2).
    """
    g, g2 = _trailing(model, g), _trailing(model, g2)
    a, b = _slots(g, g2)
    out = g + g2
    o = _slot_first(out)
    c, s = np.cos(a[0]), np.sin(a[0])
    Rx2 = _rotate(c, s, b[1:3])
    o[1:3] = Rx2 + a[1:3]
    GROUPS[model].multiply(o, a, b, c, s, Rx2, params)
    return out


def inverse(model: ModelId, g,
            params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Group inverse, solving multiply(model, g, inverse(g)) = identity.

    theta, t, phi and gamma change sign; x, eta and psi follow the record.
    """
    g = _trailing(model, g)
    out = -g
    a, o = _slot_first(g), _slot_first(out)
    c, s = np.cos(a[0]), -np.sin(a[0])  # R(-theta)
    o[1:3] = -_rotate(c, s, a[1:3])
    GROUPS[model].inverse(o, a, c, s, params)
    return out


def adjoint(model: ModelId, g, dx,
            params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Closed-form adjoint action of g on an algebra vector.

    The vector is ordered like ALGEBRA_LABELS[model]; rotation parameters
    contract to translations through eps_vec, and the cocycle contributes
    cross2(R(-theta) x, dx_trans) / r**2 - |x|^2 dtheta / (2 r**2) on the
    extension slot it feeds.
    """
    g, dx = _trailing(model, g), _trailing(model, dx)
    out = np.empty(_broadcast_shape(g.shape, dx.shape))
    out[...] = dx  # the J and H components and every central charge
    a, d = _slots(g, dx)
    o = _slot_first(out)
    c, s = np.cos(a[0]), np.sin(a[0])
    Rdtr = _rotate(c, s, d[1:3])
    o[1:3] = Rdtr + eps_vec(a[1:3]) * d[0]
    GROUPS[model].adjoint(o, a, d, c, s, Rdtr, params)
    return out


def coadjoint(model: ModelId, g, xi,
              params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Closed-form coadjoint action Ad*_g xi = (Ad_{g^{-1}})^T xi.

    Dual coordinates are ordered like DUAL_LABELS[model].  The extension
    charges (l for central1, h elsewhere) scale every translation coupling,
    and the angular momentum picks up -charge |x|^2 / (2 r**2).
    """
    g, xi = _trailing(model, g), _trailing(model, xi)
    out = np.empty(_broadcast_shape(g.shape, xi.shape))
    out[...] = xi  # E and every extension charge unless changed below
    a, v = _slots(g, xi)
    o = _slot_first(out)
    c, s = np.cos(a[0]), np.sin(a[0])
    Rp = _rotate(c, s, v[1:3])
    j0 = v[0] + cross2(a[1:3], Rp)
    GROUPS[model].coadjoint(o, a, v, c, s, j0, Rp, params)
    return out


def sample_element(model: ModelId, rng: np.random.Generator,
                   size: int | tuple[int, ...] | None = None) -> np.ndarray:
    """Random element: angle uniform in [-pi, pi], other parameters in [-1, 1].

    size gives leading batch axes, as for Generator.uniform; the default
    draws one element.
    """
    bound = np.ones(dim(model))
    bound[0] = np.pi
    shape = (dim(model),)
    if size is not None:
        shape = (*np.atleast_1d(size), dim(model))
    # rng.uniform(-bound, bound, size) in bits and generator state: it
    # returns -bound + (2 bound) u, and IEEE products and sums commute
    # exactly, so u is scaled and shifted in place, with no temporaries
    u = rng.random(shape)
    u *= 2.0 * bound
    u -= bound
    return u


def sample_dual(model: ModelId, rng: np.random.Generator,
                nondegenerate: bool = False,
                size: int | tuple[int, ...] | None = None) -> np.ndarray:
    """Random dual vector with coordinates in [-1, 1].

    With nondegenerate=True the extension charges (l, h, k) are pushed away
    from zero and the force magnitude is kept positive, so chart maps and
    Casimir denominators are well conditioned.  size gives leading batch
    axes, as for sample_element; a stack of n draws equals n single draws
    from the same generator state.
    """
    shape = () if size is None else tuple(np.atleast_1d(size))
    xi = rng.uniform(-1.0, 1.0, size=(*shape, dim(model)))
    if nondegenerate:
        labels = DUAL_LABELS[model]
        for name in ("l", "h", "k"):
            if name in labels:
                i = labels.index(name)
                x = xi[..., i]
                xi[..., i] = np.where(x == 0.0, 1.0,
                                      np.sign(x) * (0.5 + 0.5 * np.abs(x)))
        if "f1" in labels:
            f = xi[..., labels.index("f1"):labels.index("f2") + 1]
            small = np.hypot(f[..., 0], f[..., 1]) < 0.3
            f[...] = np.where(small[..., None], (0.6, 0.45), f)
    return xi


def _labelled_vector(model: ModelId, labels: tuple[str, ...], kind: str,
                     components: dict) -> np.ndarray:
    """Vector over labels from named components, zero elsewhere.

    Array components give a stack of vectors (..., n) of their broadcast
    shape; a name not in labels raises ModelMismatchError, saying it is not
    kind (a generator, a dual label) of the model.
    """
    shape = np.broadcast_shapes(*map(np.shape, components.values()))
    vec = np.zeros(shape + (len(labels),))
    for name, value in components.items():
        if name not in labels:
            raise ModelMismatchError(f"{name!r} is not {kind} of "
                                     f"{model.value}")
        vec[..., labels.index(name)] = value
    return vec


def dual_vector(model: ModelId, **components) -> np.ndarray:
    """Dual vector from named components, zero elsewhere (e.g. j=1, p1=0.5).

    Array components give a stack of vectors (..., n) of their broadcast
    shape.
    """
    return _labelled_vector(model, DUAL_LABELS[model], "a dual label",
                            components)


def algebra_vector(model: ModelId, **components) -> np.ndarray:
    """Algebra vector from named generator components (e.g. J=0.3, P1=1).

    Array components give a stack of vectors (..., n) of their broadcast
    shape.  One component, s on a single generator, is also the group
    element exp(s * e_label): its parameters are exactly s * e_label.
    """
    return _labelled_vector(model, ALGEBRA_LABELS[model], "a generator",
                            components)
