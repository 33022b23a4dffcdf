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

import numpy as np

from .lie_core import ModelParams, StructureTensor, cross2, eps_vec


class ModelMismatchError(ValueError):
    """An element, vector or label does not belong to the requested model."""


class ModelId(enum.Enum):
    BASE = "base"
    CENTRAL1 = "central1"
    CENTRAL2 = "central2"
    NONCENTRAL = "noncentral"
    DOUBLE = "double"

    @staticmethod
    def from_name(name: str) -> "ModelId":
        try:
            return ModelId(name.lower())
        except ValueError:
            raise ModelMismatchError(f"unknown model name {name!r}") from None


ALGEBRA_LABELS: dict[ModelId, tuple[str, ...]] = {
    ModelId.BASE: ("J", "P1", "P2", "H"),
    ModelId.CENTRAL1: ("J", "P1", "P2", "H", "S"),
    ModelId.CENTRAL2: ("J", "P1", "P2", "H", "S", "N"),
    ModelId.NONCENTRAL: ("J", "P1", "P2", "H", "F1", "F2", "S"),
    ModelId.DOUBLE: ("J", "P1", "P2", "H", "F1", "F2", "S", "K"),
}

DUAL_LABELS: dict[ModelId, tuple[str, ...]] = {
    ModelId.BASE: ("j", "p1", "p2", "E"),
    ModelId.CENTRAL1: ("j", "p1", "p2", "E", "l"),
    ModelId.CENTRAL2: ("j", "p1", "p2", "E", "l", "h"),
    ModelId.NONCENTRAL: ("j", "p1", "p2", "E", "f1", "f2", "h"),
    ModelId.DOUBLE: ("j", "p1", "p2", "E", "f1", "f2", "h", "k"),
}

DEFAULT_PARAMS = ModelParams()


def dim(model: ModelId) -> int:
    return len(ALGEBRA_LABELS[model])


def bracket_table(model: ModelId, params: ModelParams = DEFAULT_PARAMS) -> dict:
    """Nonzero Lie brackets {(a, b): {out: coeff}} of the model.

    The rotation generator acts as [J, V1] = V2, [J, V2] = -V1 on each
    translation pair, and [P1, P2] carries the 1/r**2 extension charge.
    """
    inv_r2 = 1.0 / params.r**2
    rot_pairs = {("J", "P1"): {"P2": 1.0}, ("J", "P2"): {"P1": -1.0}}
    if model is ModelId.BASE:
        return dict(rot_pairs)
    if model is ModelId.CENTRAL1:
        return {**rot_pairs, ("P1", "P2"): {"S": inv_r2}}
    if model is ModelId.CENTRAL2:
        return {
            **rot_pairs,
            ("P1", "P2"): {"N": inv_r2},
            ("S", "H"): {"N": params.omega},
        }
    force_pairs = {
        **rot_pairs,
        ("J", "F1"): {"F2": 1.0},
        ("J", "F2"): {"F1": -1.0},
        ("P1", "P2"): {"S": inv_r2},
        ("P1", "H"): {"F1": 1.0},
        ("P2", "H"): {"F2": 1.0},
    }
    if model is ModelId.NONCENTRAL:
        return force_pairs
    if model is ModelId.DOUBLE:
        return {
            **force_pairs,
            ("P1", "F1"): {"K": 1.0},
            ("P2", "F2"): {"K": 1.0},
        }
    raise ModelMismatchError(f"unknown model {model}")


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


def _slots(*arrays: np.ndarray) -> list[np.ndarray]:
    """Broadcast the arrays together and return slot-first views to read."""
    return [_slot_first(a) for a in np.broadcast_arrays(*arrays)]


def _rotate(theta, v) -> np.ndarray:
    """R(theta) v, counterclockwise, for 2-vectors v with components first."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array((c * v[0] - s * v[1], s * v[0] + c * v[1]))


def _dot(a, b):
    """Euclidean product of 2-vectors with components first."""
    return a[0] * b[0] + a[1] * b[1]


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
    return cross2(_rotate(-a[0], a[1:3]), b[1:3]) / (2.0 * params.r**2)


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
    theta, x, t = a[0], a[1:3], a[3]
    Rx2 = _rotate(theta, b[1:3])
    o[1:3] = Rx2 + x
    if model is ModelId.BASE:
        return out
    coc = cocycle(g, g2, params)
    if model is ModelId.CENTRAL1:
        o[4] += coc
        return out
    if model is ModelId.CENTRAL2:
        # The cross-product cocycle feeds the new center N (psi); the S
        # coordinate phi composes additively and pairs with H through N.
        o[5] += coc - params.omega * t * b[4]
        return out
    eta, t2 = a[4:6], b[3]
    Reta2 = _rotate(theta, b[4:6])
    o[6] += coc
    if model is ModelId.NONCENTRAL:
        o[4:6] = Reta2 - Rx2 * t + eta
        return out
    o[4:6] = Reta2 + eta + x * t2
    o[7] += 0.5 * _dot(x, Reta2) - 0.5 * _dot(eta + x * t2, Rx2)
    return out


def inverse(model: ModelId, g,
            params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Group inverse, solving multiply(model, g, inverse(g)) = identity.

    theta, t, phi and gamma change sign; x, eta and psi follow below.
    """
    g = _trailing(model, g)
    out = -g
    a, o = _slot_first(g), _slot_first(out)
    theta, x, t = a[0], a[1:3], a[3]
    o[1:3] = -_rotate(-theta, x)
    if model is ModelId.CENTRAL2:
        o[5] -= params.omega * t * a[4]
    elif model is ModelId.NONCENTRAL:
        o[4:6] = -_rotate(-theta, a[4:6] + x * t)
    elif model is ModelId.DOUBLE:
        o[4:6] = -_rotate(-theta, a[4:6] - x * t)
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
    out = np.empty(np.broadcast_shapes(g.shape, dx.shape))
    out[...] = dx  # the J and H components and every central charge
    a, d = _slots(g, dx)
    o = _slot_first(out)
    theta, x, t = a[0], a[1:3], a[3]
    r2 = params.r**2
    dth, dtr, dt = d[0], d[1:3], d[3]
    Rdtr = _rotate(theta, dtr)
    o[1:3] = Rdtr + eps_vec(x) * dth
    if model is ModelId.BASE:
        return out
    coc_term = (cross2(_rotate(-theta, x), dtr) / r2
                - _dot(x, x) / (2 * r2) * dth)
    if model is ModelId.CENTRAL1:
        o[4] += coc_term
        return out
    if model is ModelId.CENTRAL2:
        o[5] += (coc_term - params.omega * t * d[4]
                 + params.omega * a[4] * dt)
        return out
    eta = a[4:6]
    Rdeta = _rotate(theta, d[4:6])
    o[6] += coc_term
    if model is ModelId.NONCENTRAL:
        o[4:6] = Rdeta - t * Rdtr + eps_vec(eta) * dth + x * dt
        return out
    o[4:6] = Rdeta - t * Rdtr + eps_vec(eta - x * t) * dth + x * dt
    o[7] += (_dot(x, Rdeta) - _dot(eta, Rdtr) + cross2(x, eta) * dth
             + 0.5 * _dot(x, x) * dt)
    return out


def coadjoint(model: ModelId, g, xi,
              params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Closed-form coadjoint action Ad*_g xi = (Ad_{g^{-1}})^T xi.

    Dual coordinates are ordered like DUAL_LABELS[model].  The extension
    charges (l for central1, h elsewhere) scale every translation coupling,
    and the angular momentum picks up -charge |x|^2 / (2 r**2).
    """
    g, xi = _trailing(model, g), _trailing(model, xi)
    out = np.empty(np.broadcast_shapes(g.shape, xi.shape))
    out[...] = xi  # E and every extension charge unless changed below
    a, v = _slots(g, xi)
    o = _slot_first(out)
    theta, x, t = a[0], a[1:3], a[3]
    r2 = params.r**2
    j, E = v[0], v[3]
    Rp = _rotate(theta, v[1:3])
    if model is ModelId.BASE:
        o[0] = j + cross2(x, Rp)
        o[1:3] = Rp
        return out
    xx = _dot(x, x)
    if model is ModelId.CENTRAL1:
        l = v[4]
        o[0] = j + cross2(x, Rp) - l * xx / (2 * r2)
        o[1:3] = Rp + (l / r2) * eps_vec(x)
        return out
    if model is ModelId.CENTRAL2:
        l, h = v[4], v[5]
        o[0] = j + cross2(x, Rp) - h * xx / (2 * r2)
        o[1:3] = Rp + (h / r2) * eps_vec(x)
        o[3] = E - h * params.omega * a[4]
        o[4] = l + h * params.omega * t
        return out
    h = v[6]
    Rf = _rotate(theta, v[4:6])
    eta = a[4:6]
    if model is ModelId.NONCENTRAL:
        o[0] = (j + cross2(x, Rp) + cross2(eta + x * t, Rf)
                - h * xx / (2 * r2))
        o[1:3] = Rp + t * Rf + (h / r2) * eps_vec(x)
        o[3] = E - _dot(x, Rf)
        o[4:6] = Rf
        return out
    k = v[7]
    o[0] = (j + cross2(x, Rp) + cross2(eta, Rf) + k * cross2(x, eta)
            - h * xx / (2 * r2))
    o[1:3] = Rp + t * Rf + k * (eta - x * t) + (h / r2) * eps_vec(x)
    o[3] = E - _dot(x, Rf) + 0.5 * k * xx
    o[4:6] = Rf - k * x
    return out


def one_param_element(model: ModelId, label: str, s: float) -> np.ndarray:
    """exp(s * e_label) as a group element, for a single basis generator.

    Its parameters are exactly s * e_label.
    """
    return algebra_vector(model, **{label: s})


def sample_element(model: ModelId, rng: np.random.Generator,
                   size: int | tuple[int, ...] | None = None) -> np.ndarray:
    """Random element: angle uniform in [-pi, pi], other parameters in [-1, 1].

    size gives leading batch axes, as for Generator.uniform; the default
    draws one element.
    """
    bound = np.ones(dim(model))
    bound[0] = np.pi
    if size is not None:
        size = (*np.atleast_1d(size), dim(model))
    return rng.uniform(-bound, bound, size)


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


def dual_vector(model: ModelId, **components) -> np.ndarray:
    """Dual vector from named components, zero elsewhere (e.g. j=1, p1=0.5).

    Array components give a stack of vectors (..., n) of their broadcast
    shape.
    """
    labels = DUAL_LABELS[model]
    shape = np.broadcast_shapes(*map(np.shape, components.values()))
    xi = np.zeros(shape + (len(labels),))
    for name, value in components.items():
        if name not in labels:
            raise ModelMismatchError(f"{name!r} is not a dual label of "
                                     f"{model.value}")
        xi[..., labels.index(name)] = value
    return xi


def algebra_vector(model: ModelId, **components) -> np.ndarray:
    """Algebra vector from named generator components (e.g. J=0.3, P1=1)."""
    labels = ALGEBRA_LABELS[model]
    y = np.zeros(len(labels))
    for name, value in components.items():
        if name not in labels:
            raise ModelMismatchError(f"{name!r} is not a generator of "
                                     f"{model.value}")
        y[labels.index(name)] = value
    return y
