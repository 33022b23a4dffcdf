"""Time evolution on coadjoint orbits.

Two kinds of flow:

* group time flow, the exact line xi0 + t ad*_H xi0 traced by the
  coadjoint action of the time-translation subgroup, exact because ad*_H
  squares to zero (verify's time flow group property row fails
  otherwise).  central1 fixes everything; central2 advances the action as
  dl/dt = h omega; noncentral pushes momentum with the constant force,
  dp/dt = f; double obeys dp/dt = -k q with q frozen.  A time or dual
  point beyond the float range raises FlowSingularityError naming the
  step of the first such sample, with no partial trajectory; a finite
  dual point whose chart point is beyond it raises
  orbit_chart.SingularityError.
* Hamiltonian flow of a user-supplied function on a chart,
  dz_a/dt = {H, z_a} = (Pi^T grad H)_a, with Pi the chart Poisson tensor.
  The orientation matches the bracket convention df/dt = {H, f}, which is
  the one that reproduces the group flows above when H is the pulled-back
  energy coordinate.

With the magnetic chart of the double model and H = |p|^2 / (2 m), the
momentum circles at frequency omega: the strength of the momentum
noncommutativity {p1, p2} = -m omega acts exactly like a magnetic field
of magnitude m omega (the flow only ever sees that product, exposed as
ModelParams.m_omega).

The Poisson tensor is the closed form orbit_chart.chart_poisson at the
orbit's Casimir labels, read once per flow at z0.  That one matrix serves
the chart-constant central1, central2 and double tensors as it is; for the
noncentral one, whose {j, p} and {j, q} entries depend on the state, every
right-hand-side evaluation first writes the chart record's own Poisson
entries at the current state into it, in place (skipping the shape checks).

Integrators: classical RK4, and the implicit midpoint rule solved by fixed
point iteration (module constants: tolerance SOLVER_TOL = 1e-12, at most
MAX_ITERATIONS = 50 sweeps).  Midpoint re-reads the Poisson tensor at the
midpoint state, which handles the chart-dependent noncentral tensor.
Flows are sequential per trajectory; distinct trajectories can be
integrated concurrently.

Affine flows take one precomputed increment matrix per flow.  Two
Hamiltonians have an affine field z' = A z + b on their flow:

* a QuadraticHamiltonian (H = offset + slope . z + z . hessian z / 2 with
  a symmetric hessian; the kinetic Hamiltonian on every chart, and the
  energy on central1, central2 and double) on a chart with a constant
  Poisson tensor, with A = Pi^T hessian and b = Pi^T slope;
* the noncentral energy (a NoncentralEnergy), which generates dp/dt = f:
  dH/dj = 0 keeps phi_f fixed, and on that slice the state-dependent
  {j, p} and {j, q} entries meet gradients in p and q that are constant,
  so A and b follow in closed form from the force, m omega and z0's
  labels.

On the augmented state (z, 1) both integrators are then linear maps, built
once per flow: RK4 is D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and implicit
midpoint (the Cayley map) the exact solve of (I - hA/2) D = hA, with hA the
augmented h [[A, b], [0, 0]].  A step is z <- z + D z, and the steps are
taken a block of _BLOCK at a time: with M_j = (I + D)^j - I, built once in
the same increment form (M_{i+j} = M_i + M_j + M_i M_j), one array call
fills z_{n+j} = z_n + M_j z_n for j = 1.._BLOCK.  The increment form keeps
the small increments that z <- (I + D) z would lose in the sum.  The
solver contract is kept: before solving, the midpoint fixed-point sweep
runs once on the step matrix, and where it does not contract within
MAX_ITERATIONS the flow raises SolverConvergenceError as the stepped path
does; a non-finite D or state raises FlowSingularityError with the partial
trajectory, at the step the one-step loop would reach it (the block stack
stops before its first non-finite M_j).  If a gradient is given, the
declared field A z0 + b must equal the stepped right-hand side
Pi(z0)^T grad(z0) (ValueError otherwise), so a gradient that is not the
declared one cannot be silently replaced.  Plain callables, and the
kinetic and canonical Hamiltonians on the noncentral chart, take the
stepped path.

A Hamiltonian flow stays on its starting orbit by construction, so its
Casimir columns are the orbit labels, and the chart coordinates are
recorded as integrated (the noncentral angle phi_f is not wrapped into
(-pi, pi]).  What can drift is the energy, recorded per sample: the only
drift such a flow reports.  (The implicit midpoint rule conserves
quadratic invariants exactly, so on the quadratic Hamiltonians its energy
drift is a rounding-level cross-check.)

The named Hamiltonians are stored once, as coefficients (the energy's in
each chart's record, orbit_chart.CHARTS): kinetic_hamiltonian,
energy_hamiltonian and canonical_hamiltonian return (H, H.gradient),
where H is a QuadraticHamiltonian, or for the noncentral energy, which is
not quadratic, a NoncentralEnergy.

Hamiltonians broadcast like the group laws and chart maps: a Hamiltonian
maps chart coordinates (..., d) to energies (...).  The step loop only
calls the gradient; the energy series is one Hamiltonian call on the whole
(n, d) coordinate array once the trajectory (or the partial trajectory of
a failed flow) is built.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .lie_core import DEFAULT_PARAMS, ModelParams, _Record, _is_finite_number
from . import group_models as gm
from . import orbit_chart as oc
from .group_models import ModelId
from .orbit_chart import OrbitPoint

SOLVER_TOL = 1e-12  # the implicit midpoint's fixed-point tolerance
MAX_ITERATIONS = 50  # and its sweeps per step


class FlowSingularityError(ArithmeticError):
    """The flow hit a singular or non-finite state, or its samples do not fit
    in memory.

    Carries the failing step index and the partial trajectory integrated
    up to that point, so callers can still serialize what was computed.
    """

    def __init__(self, message: str, step: int,
                 partial: "Trajectory | None" = None):
        super().__init__(message)
        self.step = step
        self.partial = partial


class SolverConvergenceError(ArithmeticError):
    """The implicit midpoint fixed point iteration did not converge."""


class QuadraticHamiltonian(_Record):
    """H(z) = offset + slope . z + z . hessian z / 2 on a chart.

    Called like any Hamiltonian, it maps chart coordinates (..., d) to
    energies (...); gradient maps them to gradients hessian z + slope
    (..., d), a stack bit for bit like the row-by-row calls.  hessian
    (d, d), exactly symmetric, and slope (d,) are stored as read-only float
    arrays.  On a chart with a constant Poisson tensor, hamiltonian_flow
    integrates it by one precomputed increment matrix.
    """

    __slots__ = ("hessian", "slope", "offset")

    def __init__(self, hessian, slope, offset: float = 0.0):
        hessian = np.array(hessian, dtype=float)
        slope = np.array(slope, dtype=float)
        d = slope.size
        if slope.shape != (d,) or hessian.shape != (d, d):
            raise ValueError(f"quadratic hamiltonian needs a hessian (d, d) "
                             f"and a slope (d,), got {hessian.shape} and "
                             f"{slope.shape}")
        offset = float(offset)
        if not (np.isfinite(hessian).all() and np.isfinite(slope).all()
                and math.isfinite(offset)):
            raise ValueError("quadratic hamiltonian must have finite "
                             "coefficients")
        # the energy sees only the symmetric part, the flow the whole matrix
        if not np.array_equal(hessian, hessian.T):
            raise ValueError("quadratic hamiltonian needs a symmetric hessian")
        hessian.flags.writeable = slope.flags.writeable = False
        self._set(hessian=hessian, slope=slope, offset=offset)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return (self.offset + z @ self.slope
                + 0.5 * np.einsum("...i,ij,...j->...", z, self.hessian, z))

    def gradient(self, z) -> np.ndarray:
        # vecmat takes one row at a time, where z @ hessian would hand a
        # stack to a matrix product with its own rounding
        return np.vecmat(np.asarray(z, dtype=float), self.hessian) + self.slope


class NoncentralEnergy(_Record):
    """The energy coordinate on the noncentral chart (j, phi_f, p, q).

    H(z) = U - (f / mw_eff) (p sin phi_f + mw_eff q cos phi_f), with f the
    force magnitude, mw_eff = h / r**2, and U an orbit label.  Called
    like any Hamiltonian, it maps chart coordinates (..., 4) to energies
    (...); gradient maps one point (4,) to its gradient.  H does not depend
    on j, so its flow keeps phi_f fixed and is affine on that slice:
    hamiltonian_flow integrates it by one precomputed increment matrix.
    """

    __slots__ = ("f", "mw_eff", "U")

    def __init__(self, f: float, mw_eff: float, U: float):
        self._set(f=f, mw_eff=mw_eff, U=U)

    def __call__(self, z) -> np.ndarray:
        phi_f, p, q = z[..., 1], z[..., 2], z[..., 3]
        return self.U - (self.f / self.mw_eff) * (
            p * np.sin(phi_f) + self.mw_eff * q * np.cos(phi_f))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        _, phi_f, p, q = z
        fmag, mw_eff = self.f, self.mw_eff
        v = fmag / mw_eff
        return np.array([
            0.0,
            -v * (p * np.cos(phi_f) - mw_eff * q * np.sin(phi_f)),
            -v * np.sin(phi_f),
            -fmag * np.cos(phi_f),
        ])


class FlowSpec(_Record):
    """What to integrate and how.

    kind is "group-time-flow" or "hamiltonian".  For the latter,
    hamiltonian maps chart coordinates (..., d) to energies (...), with
    leading batch axes as in the chart maps: the flow calls it once, on
    the (n, d) array of its samples, for the energy series.  A scalar
    result is every sample's energy; any other shape than (n,) raises
    ValueError.  gradient (if given) maps one point (d,) to its gradient
    (d,); otherwise central finite differences of hamiltonian are used.  A
    QuadraticHamiltonian on a chart with a constant Poisson tensor, and a
    NoncentralEnergy, are integrated from their affine field instead, after
    one check of gradient at the initial point (see the module docstring).
    The midpoint solver runs to the module constants SOLVER_TOL and
    MAX_ITERATIONS.
    """

    __slots__ = ("kind", "dt", "nsteps", "integrator", "hamiltonian",
                 "gradient")

    def __init__(self, kind: str = "group-time-flow", dt: float = 1e-3,
                 nsteps: int = 10_000, integrator: str = "implicit-midpoint",
                 hamiltonian: Callable | None = None,
                 gradient: Callable | None = None):
        if kind not in ("group-time-flow", "hamiltonian"):
            raise ValueError(f"unknown flow kind {kind!r}")
        if not (_is_finite_number(dt) and dt > 0):
            raise ValueError(f"dt must be a finite positive number, got "
                             f"{dt!r}")
        if not (isinstance(nsteps, (int, np.integer))
                and not isinstance(nsteps, bool) and nsteps >= 1):
            raise ValueError(f"nsteps must be an integer of at least 1, got "
                             f"{nsteps!r}")
        if integrator not in ("rk4", "implicit-midpoint"):
            raise ValueError(f"unknown integrator {integrator!r}")
        if kind == "hamiltonian" and hamiltonian is None:
            raise ValueError("hamiltonian flows need a hamiltonian")
        # dt as a float: numpy holds a Python int dt as an int64, which
        # raises beyond 2**63
        self._set(kind=kind, dt=float(dt), nsteps=nsteps,
                  integrator=integrator, hamiltonian=hamiltonian,
                  gradient=gradient)


class Trajectory(_Record):
    """Sampled flow: one row per time in every series.

    coords is the (n, d) array of chart coordinates and casimir_series the
    (n, c) array of the Casimir values named by CASIMIR_NAMES[model]:
    computed per sample from the dual point on group time flows, the orbit
    labels broadcast on Hamiltonian flows, which also carry the energy per
    sample.
    """

    __slots__ = ("model", "times", "coords", "casimir_series",
                 "hamiltonian_series")

    def __init__(self, model: ModelId, times: np.ndarray, coords: np.ndarray,
                 casimir_series: np.ndarray,
                 hamiltonian_series: np.ndarray | None = None):
        self._set(model=model, times=times, coords=coords,
                  casimir_series=casimir_series,
                  hamiltonian_series=hamiltonian_series)


def invariant_drift(traj: Trajectory) -> dict[str, float]:
    """Largest absolute deviation of each invariant from its initial value.

    A Hamiltonian flow reports its energy alone, as "H": its Casimir series
    is its orbit's labels by construction.  A group time flow reports each
    Casimir by name, from the series computed at every sample.
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    if traj.hamiltonian_series is None:
        names, series = oc.CASIMIR_NAMES[traj.model], traj.casimir_series
    else:
        names, series = ("H",), traj.hamiltonian_series[:, None]
    return dict(zip(names, np.abs(series - series[0]).max(axis=0).tolist()))


def time_flow_exact(model: ModelId, xi0, t,
                    params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Coadjoint action of the time-translation subgroup on the dual point.

    Ad*_{exp(tH)} xi0 is the exact line xi0 + t ad*_H xi0, exact because
    ad*_H squares to zero on every model (verify's time flow group
    property row fails otherwise); the velocity ad*_H xi0 is the structure
    tensor contracted with xi0 along H.  t may be an array of times; their
    axes lead the result's, and a stack of dual points (..., n) broadcasts
    against them.  The contraction multiplies every slot of xi0, so one
    non-finite slot makes the whole result nan.
    """
    tensor = gm.structure_tensor(model, params)
    xi0 = gm._trailing(model, xi0)
    t = np.asarray(t, dtype=float)[..., None]
    velocity = xi0 @ tensor.c[:, tensor.index("H")].T
    shape = np.broadcast_shapes(t.shape, xi0.shape)
    # one result, filled in place and laid out slot first like the chart
    # maps' results: the array loops then run along the time axes, not n
    # values at a time, and chart_from_dual reads each slot contiguously
    flow = np.empty(shape[-1:] + shape[:-1]).transpose(
        *range(1, len(shape)), 0)
    np.multiply(t, velocity, out=flow)
    flow += xi0
    return flow


def _group_trajectory(model: ModelId, z0: OrbitPoint, spec: FlowSpec,
                      params: ModelParams) -> Trajectory:
    xi0 = oc.dual_from_chart(z0, params)
    # a time or dual point beyond the float range is found by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        times = spec.dt * np.arange(spec.nsteps + 1)
        duals = time_flow_exact(model, xi0, times, params)
    finite = np.isfinite(duals)
    if not finite.all():  # a whole-array reduction; per row only on failure
        n = int(finite.all(axis=1).argmin())
        step = max(n - 1, 0)
        raise FlowSingularityError(
            f"step {step}: the dual point at t = {float(times[n])!r} is not "
            f"finite", step=step)
    points = oc.chart_from_dual(model, duals, params)
    return Trajectory(model, times, points.coords, points.labels)


def _rhs_factory(model: ModelId, z0: OrbitPoint, spec: FlowSpec,
                 params: ModelParams, pi: np.ndarray):
    """The stepped right-hand side z -> Pi(z)^T grad(z) from z0's pi.

    On a chart whose tensor depends on the state, each call first writes
    the record's entries at z into pi, the one matrix it applies.
    """
    grad = spec.gradient or oc.gradient_fd(spec.hamiltonian)
    chart = oc.CHARTS[model]
    entries = None if chart.constant_poisson else chart.poisson
    charge, pi_t = z0.labels[0], pi.T

    def rhs(z: np.ndarray) -> np.ndarray:
        if entries is not None:
            for (a, b), v in entries(z, charge, params).items():
                pi[a, b], pi[b, a] = v, -v
        return pi_t.dot(grad(z))
    return rhs


def _rk4_step(rhs, z: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(z)
    k2 = rhs(z + 0.5 * dt * k1)
    k3 = rhs(z + 0.5 * dt * k2)
    k4 = rhs(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_amax = np.maximum.reduce  # ndarray.max without its Python-level wrapper


def _energy_series(hamiltonian, coords: np.ndarray) -> np.ndarray:
    """Energies (n,) of the samples coords (n, d), from one call."""
    n = len(coords)
    h = np.asarray(hamiltonian(coords), dtype=float)
    if h.shape == ():
        return np.full(n, h)
    if h.shape != (n,):
        raise ValueError(f"hamiltonian must map chart coordinates "
                         f"{coords.shape} to energies ({n},) or a scalar, "
                         f"got shape {h.shape}")
    return h


def _midpoint_step(rhs, z: np.ndarray, dt: float) -> np.ndarray:
    z_new = z + dt * rhs(z)
    scale = SOLVER_TOL * (1.0 + float(_amax(abs(z))))
    for _ in range(MAX_ITERATIONS):
        z_next = z + dt * rhs(0.5 * (z + z_new))
        if _amax(abs(z_next - z_new)) < scale:
            return z_next
        z_new = z_next
    raise _no_convergence()


def _no_convergence() -> SolverConvergenceError:
    return SolverConvergenceError(
        f"implicit midpoint fixed point did not converge within "
        f"{MAX_ITERATIONS} iterations at tolerance {SOLVER_TOL:.0e}"
    )


def _affine_field(model: ModelId, z0: OrbitPoint, spec: FlowSpec,
                  params: ModelParams, pi_t: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """The field z' = A z + b (A (d, d), b (d,)) of an affine flow from z0.

    None unless the flow is affine: a QuadraticHamiltonian on a chart with
    a constant Poisson tensor, or a NoncentralEnergy on the noncentral
    chart, whose field is affine on z0's phi_f slice.  pi_t is the
    transposed Poisson tensor at z0.  A given gradient is checked once, at
    z0, against the stepped right-hand side.
    """
    ham = spec.hamiltonian
    z = np.asarray(z0.coords, dtype=float)
    d = z.size
    if (isinstance(ham, QuadraticHamiltonian)
            and oc._chart(model).constant_poisson):
        if ham.slope.shape != (d,):
            raise ValueError(f"quadratic hamiltonian has {ham.slope.size} "
                             f"coordinates, the {model.value} chart has {d}")
        a, b = pi_t @ ham.hessian, pi_t @ ham.slope
    elif isinstance(ham, NoncentralEnergy) and model is ModelId.NONCENTRAL:
        mw = params.m_omega
        kappa = pi_t[3, 2]  # {p, q}
        # Pi^T grad H with phi_f' = dH/dj = 0.  On the slice,
        # j' = f (1 / mw_eff - 1 / mw) (p cos phi_f + mw q sin phi_f),
        # p' = kappa f cos phi_f and q' = -kappa (f / mw_eff) sin phi_f
        fmag, mw_eff = ham.f, ham.mw_eff
        c, s = math.cos(z[1]), math.sin(z[1])
        g = fmag * (1.0 / mw_eff - 1.0 / mw)
        a = np.zeros((4, 4))
        a[0, 2], a[0, 3] = g * c, g * mw * s
        b = np.array([0.0, 0.0, kappa * fmag * c,
                      -kappa * (fmag / mw_eff) * s])
    else:
        return None
    if spec.gradient is not None:
        grad = np.asarray(spec.gradient(z), dtype=float)
        if grad.shape != (d,):
            raise ValueError(f"gradient has shape {grad.shape} at the initial "
                             f"point, the {model.value} chart has {d} "
                             f"coordinates")
        want, got = a @ z + b, pi_t @ grad
        # the rounding of both sides, with room for another order
        bound = 1e-12 * (1.0 + np.abs(a) @ np.abs(z) + np.abs(b)
                         + np.abs(pi_t) @ np.abs(grad))
        if not (np.abs(got - want) <= bound).all():
            raise ValueError(f"gradient gives the field {got} at the initial "
                             f"point, which disagrees with the hamiltonian's "
                             f"declared field {want}")
    return a, b


def _increment_matrix(a: np.ndarray, b: np.ndarray, dt: float,
                      integrator: str) -> np.ndarray:
    """Increment matrix D (d+1, d+1) of z <- z + D z on the state (z, 1).

    D may be non-finite; the caller checks.
    """
    d = b.size
    ha = np.zeros((d + 1, d + 1))
    ha[:d, :d] = a
    ha[:d, d] = b
    # an overflow shows as a non-finite D or a sweep that does not contract
    with np.errstate(over="ignore", invalid="ignore"):
        ha *= dt
        if integrator == "rk4":
            ha2 = ha @ ha
            return ha + ha2 / 2.0 + (ha2 @ ha) / 6.0 + (ha2 @ ha2) / 24.0
        # the stepped sweep z_new <- z + hA (z + z_new) / 2 from
        # z_new = z + hA z, run on the increment: X <- hA + hA X / 2 from
        # X = hA.  A row-sum change below tol bounds every state's sweep
        # change below tol (1 + max|z|) at the same iteration.
        half = 0.5 * ha
        x = ha
        for _ in range(MAX_ITERATIONS):
            x_next = ha + half @ x
            if np.abs(x_next - x).sum(axis=1).max() < SOLVER_TOL:
                break
            x = x_next
        else:
            raise _no_convergence()
    increment = np.linalg.solve(np.eye(d + 1) - half, ha)
    increment[d] = 0.0  # the state's constant 1 stays exact
    return increment


_BLOCK = 64  # steps per array call of the increment-matrix path


def _increment_steps(increment: np.ndarray, states: np.ndarray) -> None:
    """Fill states[n + 1] = states[n] + increment @ states[n] in place.

    A block of up to _BLOCK steps per array call: states[n + j] =
    states[n] + M_j @ states[n] with M_j = (I + D)^j - I, built by
    doubling from M_1 = D as M_{i+j} = M_i + M_j + M_i M_j.  The stack is
    cut before its first non-finite M_j, so a state that overflows does so
    at the step the one-step loop would reach it.
    """
    nsteps, width = len(states) - 1, states.shape[1]
    stack = np.empty((min(_BLOCK, nsteps), width, width))
    stack[0] = increment
    j = 1
    while j < len(stack):
        k = min(j, len(stack) - j)
        last = stack[j - 1]
        stack[j:j + k] = stack[:k] + last + stack[:k] @ last
        j += k
    finite = np.isfinite(stack).all(axis=(1, 2))
    block = int(finite.argmin()) if not finite.all() else len(stack)
    flat = stack[:block].reshape(-1, width)  # one matrix-vector product
    for n in range(0, nsteps, block):
        k = min(block, nsteps - n)
        z = states[n]
        np.add(z, (flat[:k * width] @ z).reshape(k, width),
               out=states[n + 1:n + 1 + k])


def hamiltonian_flow(model: ModelId, spec: FlowSpec, z0: OrbitPoint,
                     params: ModelParams = DEFAULT_PARAMS) -> Trajectory:
    """Integrate the flow described by spec starting at the chart point z0.

    Group time flows are sampled from the exact line xi0 + t ad*_H xi0,
    exact because ad*_H squares to zero (verify's group property row fails
    otherwise), and their Casimir series is computed from every sample's
    dual point.  Hamiltonian flows advance the chart coordinates on z0's
    orbit, so their Casimir series is z0's labels; what can drift is the
    energy series.  Either integrator path fills one array of augmented
    states (z, 1), which is scanned once for its first non-finite row; a
    chart error, a non-finite increment matrix or state, or an energy
    beyond the float range at a finite state raises FlowSingularityError
    (see the module docstring).  So does, at step 0 and with no partial
    trajectory, a step count whose samples do not fit in memory.
    """
    if z0.model is not model:
        raise gm.ModelMismatchError("initial point belongs to "
                                    f"{z0.model.value}, not {model.value}")
    try:
        if spec.kind == "group-time-flow":
            return _group_trajectory(model, z0, spec, params)
        # rows (z, 1); the stepped path writes only z
        states = np.ones((spec.nsteps + 1, np.size(z0.coords) + 1))
    except MemoryError:
        raise FlowSingularityError(f"step 0: {spec.nsteps + 1} samples do "
                                   "not fit in memory", step=0) from None
    pi = oc.chart_poisson(model, z0.coords, z0.labels, params)
    affine = _affine_field(model, z0, spec, params, pi.T)
    increment = (None if affine is None
                 else _increment_matrix(*affine, spec.dt, spec.integrator))
    coords = states[:, :-1]
    coords[0] = z0.coords
    end, message, cause = len(states), None, None
    if increment is None:
        end, cause = _step_loop(_rhs_factory(model, z0, spec, params, pi),
                                spec, coords)
        message = None if cause is None else str(cause)
    elif not np.isfinite(increment).all():
        end, message = 1, f"non-finite increment matrix at dt = {spec.dt!r}"
    else:
        # a state that overflows is found by the scan below
        with np.errstate(over="ignore", invalid="ignore"):
            _increment_steps(increment, states)
    if not np.isfinite(coords[:end]).all():  # per row only on failure
        end = int(np.isfinite(coords[:end]).all(axis=1).argmin())
        message = f"non-finite state {coords[end]}"
    # a failed flow's last rows may overflow here, to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _energy_series(spec.hamiltonian, coords[:end])
    traj = Trajectory(model, spec.dt * np.arange(end), coords[:end],
                      np.broadcast_to(z0.labels, (end, z0.labels.size)),
                      energies)
    if message is None and not np.isfinite(energies).all():
        # finite states whose energy overflows: no partial trajectory
        n = int(np.isfinite(energies).argmin())
        end, traj = max(n, 1), None
        message = f"the energy {float(energies[n])} overflows at a finite state"
    if message is not None:
        raise FlowSingularityError(f"step {end - 1}: {message}", step=end - 1,
                                   partial=traj) from cause
    return traj


def _step_loop(rhs, spec: FlowSpec, coords: np.ndarray):
    """Fill coords[n + 1] from coords[n] by the stepped integrator.

    Returns the number of rows filled and the chart error that stopped the
    loop, if one did.  The loop also stops after the first non-finite RK4
    state.  _midpoint_step returns an iterate only when its distance to the
    previous one is below a scale; a nan or inf component makes that
    distance nan or inf, which never compares below it, so only RK4 can
    step to a non-finite state.
    """
    step = _rk4_step if spec.integrator == "rk4" else _midpoint_step
    z = coords[0]
    # RK4 overflows are found by the caller's scan; midpoint ones fail to
    # converge
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(spec.nsteps):
            try:
                z = step(rhs, z, spec.dt)
            except (oc.ChartDegeneracyError, oc.SingularityError) as exc:
                return n + 1, exc
            coords[n + 1] = z
            if step is _rk4_step and not np.isfinite(z).all():
                return n + 2, None
    return len(coords), None


def kinetic_hamiltonian(model: ModelId, params: ModelParams = DEFAULT_PARAMS):
    """(H, H.gradient) for H = |p|^2 / (2 m) on the model's chart.

    H is a QuadraticHamiltonian whose hessian is 1 / m on the momentum
    slots.  On the double chart this is the magnetic example: p circles at
    frequency omega with period 2 pi / omega.
    """
    names = oc._chart(model).coords
    inv_mass = [1.0 / params.m if name in ("p", "p1", "p2") else 0.0
                for name in names]
    ham = QuadraticHamiltonian(np.diag(inv_mass), np.zeros(len(names)))
    return ham, ham.gradient


def energy_hamiltonian(model: ModelId, point: OrbitPoint,
                       params: ModelParams = DEFAULT_PARAMS):
    """(H, H.gradient) for the energy coordinate E pulled back to the chart.

    H is a QuadraticHamiltonian on every chart but the noncentral one:
    the constant E on central1, -h omega alpha on central2 and
    U + k |q|^2 / 2 on double.  On the noncentral chart it is a
    NoncentralEnergy.  Its coefficients are the chart record's energy
    (orbit_chart.CHARTS).  Generates exactly the group time flow,
    restricted to the chart, so it reproduces dl/dt = h omega (central2),
    dp/dt = f (noncentral) and dp/dt = -k q (double).
    """
    chart = oc._chart(model)
    lab = dict(zip(chart.casimir_names, point.labels.tolist()))
    kind = QuadraticHamiltonian if chart.constant_poisson else NoncentralEnergy
    ham = kind(*chart.energy(lab, params))
    return ham, ham.gradient


def canonical_hamiltonian(params: ModelParams = DEFAULT_PARAMS):
    """(H, H.gradient) for the canonical energy on the noncentral chart.

    H = j omega + p**2 / (2 m) + m omega**2 q**2 / 2, the energy coordinate
    of orbit_chart.canonicalize_noncentral: a QuadraticHamiltonian with
    hessian diag(0, 0, 1 / m, m omega**2) and slope (omega, 0, 0, 0).  On
    orbits with kappa = h / (m omega r**2) = 1 its flow moves only phi_f,
    at the rate omega.  Elsewhere it also turns p and q, at the rate
    omega |kappa - 1|; the kappa-corrected energy is ROADMAP item 3.
    """
    m, w = params.m, params.omega
    ham = QuadraticHamiltonian(np.diag([0.0, 0.0, 1.0 / m, m * w**2]),
                               [w, 0.0, 0.0, 0.0])
    return ham, ham.gradient
