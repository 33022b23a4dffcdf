"""Structure-constant machinery for finite-dimensional real Lie algebras.

Every algebra in this package is represented by a rank-3 array of structure
constants C^c_{ab} over a fixed, documented basis order.  The planar
conventions used throughout the package are fixed here, once:

* rotations are counterclockwise, R(theta) = [[cos, -sin], [sin, cos]];
* the rotation generator acts on each translation pair (V1, V2) as
  [J, V1] = V2 and [J, V2] = -V1, so ad_J restricted to a pair is the
  counterclockwise generator [[0, -1], [1, 0]], d/dtheta R(theta) at 0;
* the antisymmetric pairing of 2-vectors is cross2(a, b) = a1*b2 - a2*b1,
  and eps_vec(u) = (u2, -u1) = -[[0, -1], [1, 0]] @ u is the vector it
  induces when a rotation parameter is contracted against a translation;
* the lower-index symbol has eps_{12} = +1.

These four statements are one consistent package: changing any of them in
isolation breaks the cross checks between the group laws, the adjoint and
coadjoint actions, and the Kirillov matrices that the test suite enforces.
The group laws and chart maps call cross2 and eps_vec directly; both read
2-vectors components first, so stacks (2, ...) broadcast.  expm is the
one matrix exponential, over stacks (..., n, n), with one algorithm at
every argument size and one fixed tolerance, EXPM_TOL: scaling and
squaring (Moler & Van Loan, SIAM Review 45(1), 2003).  exp_coadjoint
applies it to coadjoint matrices.  The verify command takes its oracle of
the closed-form actions from these two alone: exp_coadjoint for the
coadjoint series, expm for the convention notes' factors.

All values are double precision.  Types are immutable after construction
and all operations are pure functions, so everything here is safe to share
across threads.  The package's records (ModelParams and StructureTensor
here, the chart points, Hamiltonians, flow specs and trajectories
elsewhere, and verify's rows) are _Record subclasses with __slots__: each
__init__ sets its fields once through _Record._set, and any later
assignment or deletion raises AttributeError.  ModelParams compares and
hashes by value, so equal params share one cached structure tensor;
DEFAULT_PARAMS is the one default instance the other modules import.
ModelParams, the flow spec's dt and the CLI's numbers are tested by one
predicate, _is_finite_number.
"""

from __future__ import annotations

import math
import sys

import numpy as np


class DimensionMismatchError(ValueError):
    """Input vector length does not match the algebra dimension."""


class SeriesConvergenceError(ArithmeticError):
    """A truncated power series failed to converge within its term cap."""


#: Term cap of the expm series.
MAX_TERMS = 200

#: Bound on the max-norm of the first omitted term of every expm series.
EXPM_TOL = 1e-14


def rotation(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix R(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def cross2(a, b):
    """Planar cross product a1*b2 - a2*b1 of 2-vectors, components first.

    a and b may be stacks (2, ...) whose batch axes broadcast together.
    """
    return a[0] * b[1] - a[1] * b[0]


def eps_vec(u) -> np.ndarray:
    """The vector (u2, -u1) contracted from a rotation parameter.

    u may be a stack (2, ...), components first.  Satisfies
    eps_vec(u) = -[[0, -1], [1, 0]] @ u and cross2(u, eps_vec(u)) = -|u|^2.
    """
    return np.array((u[1], -u[0]))


def _is_finite_number(value) -> bool:
    """Whether value is a finite real number: a Python or numpy int or
    float, not a bool, with |value| within the float range.

    A Python int is compared exactly, so one beyond the float range, which
    float() cannot convert, is rejected rather than raised on.
    """
    if isinstance(value, int):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return (isinstance(value, (float, np.integer, np.floating))
            and math.isfinite(value))


class _Record:
    """Base of the immutable records: fields are slots set once by _set."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"delete {name!r}")


class ModelParams(_Record):
    """Physical scales shared by all models.

    m is a mass, omega a frequency and r a length.  Derived from them are
    the reference action l_sub = m * omega * r**2 and m_omega = m * omega,
    the magnetic strength of the double model's chart, so with the default
    m = omega = r = 1 all structure constants and matrix entries reduce to
    small integers.  All three must be finite positive numbers
    (_is_finite_number), and r**2 must be too as a float (about 1.6e-162
    < r < 1.34e154).  They are stored as floats.  Equal fields make equal,
    equally hashed params.
    """

    __slots__ = ("m", "omega", "r")

    def __init__(self, m: float = 1.0, omega: float = 1.0, r: float = 1.0):
        # the structure constants hold 1 / r**2, and float ** raises where
        # the square overflows
        if not (all(_is_finite_number(v) and v > 0 for v in (m, omega, r))
                and 0.0 < float(r) * float(r) < math.inf):
            raise ValueError("ModelParams requires finite m > 0, omega > 0, "
                             "r > 0, and r**2 > 0 finite as a float")
        # as floats: a product of Python ints (m * omega, say) can outgrow
        # the float range and raise where the float product is inf
        self._set(m=float(m), omega=float(omega), r=float(r))

    def __eq__(self, other):
        if type(other) is not ModelParams:
            return NotImplemented
        return (self.m, self.omega, self.r) == (other.m, other.omega, other.r)

    def __hash__(self):
        return hash((self.m, self.omega, self.r))

    @property
    def l_sub(self) -> float:
        """Reference action m * omega * r**2 (the action-scale substitution)."""
        return self.m * self.omega * self.r**2

    @property
    def m_omega(self) -> float:
        return self.m * self.omega


#: The params of every default argument: m = omega = r = 1.
DEFAULT_PARAMS = ModelParams()


class StructureTensor(_Record):
    """Structure constants C^c_{ab} of a Lie algebra over a labeled basis.

    The array is indexed c[a, b, out] and is antisymmetric in (a, b) bit
    exactly by construction.
    """

    __slots__ = ("labels", "c")

    def __init__(self, labels: tuple[str, ...], c: np.ndarray):
        self._set(labels=labels, c=c)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @staticmethod
    def from_brackets(labels: tuple[str, ...], table: dict) -> "StructureTensor":
        """Build a tensor from a map {(a, b): {out: coeff}} of nonzero brackets.

        Only one orientation of each pair needs to be given; the opposite
        orientation is filled with the exact negation.
        """
        n = len(labels)
        c = np.zeros((n, n, n))
        idx = {lab: k for k, lab in enumerate(labels)}
        for (a, b), outs in table.items():
            ia, ib = idx[a], idx[b]
            for out, coeff in outs.items():
                c[ia, ib, idx[out]] = coeff
                c[ib, ia, idx[out]] = -coeff
        return StructureTensor(labels=tuple(labels), c=c)


def _check_trailing(t: StructureTensor, v, name: str) -> np.ndarray:
    """v as a float array (..., n): leading axes are batch axes."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (t.dim,):
        raise DimensionMismatchError(
            f"{name} has shape {v.shape}, expected (..., {t.dim})"
        )
    return v


def bracket(t: StructureTensor, x, y) -> np.ndarray:
    """Lie brackets [x, y]^c = sum_ab C^c_{ab} x^a y^b.

    x and y are (..., n) with batch axes that broadcast together.
    """
    x = _check_trailing(t, x, "x")
    y = _check_trailing(t, y, "y")
    return np.einsum("abc,...a,...b->...c", t.c, x, y)

def jacobi_defect(t: StructureTensor) -> float:
    """Max-norm of the cyclic sum [[e_a,e_b],e_c] + [[e_b,e_c],e_a] + [[e_c,e_a],e_b].

    Zero (to rounding) exactly when the tensor defines a Lie algebra.
    """
    # nested[a, b, c, d] = [[e_a, e_b], e_c]^d
    nested = np.einsum("abe,ecd->abcd", t.c, t.c)
    cyc = nested + nested.transpose(1, 2, 0, 3) + nested.transpose(2, 0, 1, 3)
    return float(np.abs(cyc).max())


def ad_matrix(t: StructureTensor, x) -> np.ndarray:
    """Matrices (..., n, n) of ad_x, with (ad_x)^c_b = sum_a C^c_{ab} x^a.

    x is (..., n); leading axes are batch axes.  Satisfies
    ad_matrix(t, x) @ y == bracket(t, x, y) for all y.
    """
    x = _check_trailing(t, x, "x")
    return np.einsum("abc,...a->...cb", t.c, x)


def coad_matrix(t: StructureTensor, x) -> np.ndarray:
    """Matrices of the infinitesimal coadjoint action, -ad_matrix(t, x)^T.

    Acting on dual coordinate vectors it satisfies the pairing identity
    <coad(x) xi, y> + <xi, ad(x) y> = 0.
    """
    return -np.swapaxes(ad_matrix(t, x), -1, -2)


def kirillov_matrix(t: StructureTensor, xi) -> np.ndarray:
    """Antisymmetric forms K_{ab} = sum_c C^c_{ab} xi_c at dual points xi.

    xi is (..., n) and the result (..., n, n); leading axes are batch axes.
    """
    xi = _check_trailing(t, xi, "xi")
    return np.einsum("abc,...c->...ab", t.c, xi)


def expm(m) -> np.ndarray:
    """Matrix exponentials exp(m) of square matrices (..., n, n).

    Scaling and squaring: each matrix M is scaled by the smallest 2^k that
    brings its max row sum nu = |M / 2^k| to at most 1 (k = 0 where
    |M| <= 1 already), the series of exp(M / 2^k) is summed up to the
    first term n whose bound nu^n / n! on its max-norm is at most
    EXPM_TOL / 2^k, and the sum is squared k times.  The scaling keeps the
    terms at most 1: summing the series of a large M directly would cancel
    catastrophically (terms of size e^|M|).  Each matrix's arithmetic is
    its own, so a stacked call equals the single calls.  A non-finite m
    raises ValueError before any term is summed.
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("expm: m must be finite")
    # norm = mant 2^e with mant in [0.5, 1): the k with norm / 2^k <= 1
    norm = np.abs(m).sum(axis=-1).max(axis=-1)
    mant, e = np.frexp(norm)
    squarings = np.maximum(e - (mant == 0.5), 0)
    scaled = term = np.ldexp(m, -squarings[..., None, None])
    acc = np.eye(m.shape[-1]) + scaled
    # term n of the scaled series has max-norm at most nu^n / n!
    nu = np.ldexp(norm, -squarings)
    bound, scale = nu.copy(), np.ldexp(EXPM_TOL, -squarings)
    active = ~(bound <= scale)
    n = 1
    while active.any():
        n += 1
        if n > MAX_TERMS:
            raise SeriesConvergenceError(
                f"matrix exponential series did not converge within "
                f"{MAX_TERMS} terms (last term norm {np.abs(term).max():.3e})")
        term = term @ scaled
        term /= n
        np.add(acc, term, out=acc, where=active[..., None, None])
        bound *= nu / n
        active &= ~(bound <= scale)
    rounds = int(squarings.max(initial=0))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for s in range(rounds):
            acc = np.where((squarings > s)[..., None, None], acc @ acc, acc)
    if not np.isfinite(acc).all():
        raise SeriesConvergenceError(
            f"matrix exponential overflowed in {rounds} squarings")
    return acc


def exp_coadjoint(t: StructureTensor, x, xi) -> np.ndarray:
    """exp(coad_matrix(t, x)) @ xi, with the exponential from expm.

    Reference oracle for the closed-form group coadjoint actions: the
    series side of verify's "coadjoint matches exponential oracle" rows.
    x and xi are (..., n) with batch axes that broadcast together; each
    sample's arithmetic is its own, so a stacked call equals the single
    calls.  A non-finite x or xi raises ValueError before any term is
    summed.
    """
    x = _check_trailing(t, x, "x")
    xi = _check_trailing(t, xi, "xi")
    for name, v in (("x", x), ("xi", xi)):
        if not np.isfinite(v).all():
            raise ValueError(f"exp_coadjoint: {name} must be finite")
    return (expm(coad_matrix(t, x)) @ xi[..., None])[..., 0]
