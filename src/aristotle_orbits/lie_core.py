"""Structure-constant machinery for finite-dimensional real Lie algebras.

Every algebra in this package is represented by a rank-3 array of structure
constants C^c_{ab} over a fixed, documented basis order.  The planar
conventions used throughout the package are fixed here, once:

* rotations are counterclockwise, R(theta) = [[cos, -sin], [sin, cos]];
* the rotation generator acts on each translation pair (V1, V2) as
  [J, V1] = V2 and [J, V2] = -V1, so ad_J restricted to a pair is the
  counterclockwise generator EPS0 = [[0, -1], [1, 0]];
* the antisymmetric pairing of 2-vectors is cross2(a, b) = a1*b2 - a2*b1,
  and eps_vec(u) = (u2, -u1) = -EPS0 @ u is the vector it induces when a
  rotation parameter is contracted against a translation;
* the lower-index symbol has eps_{12} = +1.

These four statements are one consistent package: changing any of them in
isolation breaks the cross checks between the group laws, the adjoint and
coadjoint actions, and the Kirillov matrices that the test suite enforces.

All values are double precision.  Types are immutable after construction
and all operations are pure functions, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    """Input vector length does not match the algebra dimension."""


class SeriesConvergenceError(ArithmeticError):
    """A truncated power series failed to converge within its term cap."""


#: Counterclockwise rotation generator, d/dtheta R(theta) at theta = 0.
EPS0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix R(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def cross2(a, b) -> float:
    """Planar cross product a1*b2 - a2*b1."""
    return float(a[0] * b[1] - a[1] * b[0])


def eps_vec(u) -> np.ndarray:
    """The vector (u2, -u1) contracted from a rotation parameter.

    Satisfies eps_vec(u) = -EPS0 @ u and cross2(u, eps_vec(u)) = -|u|^2.
    """
    return np.array([u[1], -u[0]], dtype=float)


@dataclass(frozen=True)
class ModelParams:
    """Physical scales shared by all models.

    m is a mass, omega a frequency and r a length.  The derived velocity is
    c = omega * r and the derived reference action is l_sub = m * omega * r**2,
    so with the default m = omega = r = 1 all structure constants and matrix
    entries reduce to small integers.
    """

    m: float = 1.0
    omega: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        values = (self.m, self.omega, self.r)
        if not all(v > 0 and math.isfinite(v) for v in values):
            raise ValueError("ModelParams requires finite m > 0, omega > 0, "
                             "r > 0")

    @property
    def c(self) -> float:
        return self.omega * self.r

    @property
    def l_sub(self) -> float:
        """Reference action m * omega * r**2 (the action-scale substitution)."""
        return self.m * self.omega * self.r**2

    @property
    def m_omega(self) -> float:
        return self.m * self.omega


@dataclass(frozen=True)
class StructureTensor:
    """Structure constants C^c_{ab} of a Lie algebra over a labeled basis.

    The array is indexed c[a, b, out] and is antisymmetric in (a, b) bit
    exactly by construction.
    """

    labels: tuple[str, ...]
    c: np.ndarray = field(repr=False)

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
    return float(np.max(np.abs(cyc)))


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


def exp_coadjoint(t: StructureTensor, x, xi, tol: float = 1e-12,
                  max_terms: int = 200) -> np.ndarray:
    """exp(coad_matrix(t, x)) @ xi by truncated power series.

    Reference oracle for the closed-form group coadjoint actions.  x and xi
    are (..., n) with batch axes that broadcast together.  A sample whose
    coadjoint matrix M has max row sum |M| <= 1 accumulates the series
    applied to xi until its next term's max-norm drops below
    tol * (1 + |xi|).  A larger M would cancel catastrophically (terms of
    size e^|M| summing to |xi|), so it is scaled and squared instead:
    exp(M) = exp(M / 2^k)^(2^k) with the smallest k that brings
    |M / 2^k| to 1, the matrix series stopped at tol / 2^k.  Each sample's
    arithmetic is its own, so a stacked call equals the single calls.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = _check_trailing(t, x, "x")
    xi = _check_trailing(t, xi, "xi")
    shape = np.broadcast_shapes(x.shape, xi.shape)
    m = np.broadcast_to(coad_matrix(t, x), shape + shape[-1:])
    acc = np.array(np.broadcast_to(xi, shape))
    # norm = mant 2^e with mant in [0.5, 1): the k with norm / 2^k <= 1
    mant, e = np.frexp(np.abs(m).sum(axis=-1).max(axis=-1))
    squarings = np.maximum(e - (mant == 0.5), 0)
    big = squarings > 0
    if not big.any():
        return _series_applied(m, acc, tol, max_terms)
    small = ~big
    acc[small] = _series_applied(m[small], acc[small], tol, max_terms)
    exp_m = _scaled_exp(m[big], squarings[big], tol, max_terms)
    acc[big] = (exp_m @ acc[big][..., None])[..., 0]
    return acc


def _no_convergence(max_terms: int,
                    term: np.ndarray) -> SeriesConvergenceError:
    return SeriesConvergenceError(
        f"coadjoint exponential series did not converge within {max_terms} "
        f"terms (last term norm {np.abs(term).max():.3e})"
    )


def _series_applied(m: np.ndarray, xi: np.ndarray, tol: float,
                    max_terms: int) -> np.ndarray:
    """exp(m) @ xi per sample, summing the series m^n xi / n!."""
    acc = term = xi
    scale = tol * (1.0 + np.abs(acc).max(axis=-1))
    active = np.ones(scale.shape, dtype=bool)
    for n in range(1, max_terms + 1):
        term = (m @ term[..., None])[..., 0] / n
        acc = np.where(active[..., None], acc + term, acc)
        active &= ~(np.abs(term).max(axis=-1) < scale)
        if not active.any():
            return acc
    raise _no_convergence(max_terms, term)


def _scaled_exp(m: np.ndarray, squarings: np.ndarray, tol: float,
                max_terms: int) -> np.ndarray:
    """exp(m) (k, n, n) as exp(m / 2^s)^(2^s), s = squarings (k,)."""
    scaled = m / np.exp2(squarings)[:, None, None]
    acc = term = np.broadcast_to(np.eye(m.shape[-1]), m.shape)
    scale = tol * np.exp2(-squarings)
    active = np.ones(scale.shape, dtype=bool)
    for n in range(1, max_terms + 1):
        term = term @ scaled / n
        acc = np.where(active[:, None, None], acc + term, acc)
        active &= ~(np.abs(term).max(axis=(-2, -1)) <= scale)
        if not active.any():
            break
    else:
        raise _no_convergence(max_terms, term)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for s in range(int(squarings.max())):
            acc = np.where((squarings > s)[:, None, None], acc @ acc, acc)
    if not np.isfinite(acc).all():
        raise SeriesConvergenceError(
            f"coadjoint exponential overflowed in {int(squarings.max())} "
            f"squarings")
    return acc
