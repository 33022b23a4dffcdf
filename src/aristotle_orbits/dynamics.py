"""Time evolution on coadjoint orbits.

Two kinds of flow:

* group time flow, the exact coadjoint action of the time-translation
  subgroup.  central1 fixes everything; central2 advances the action as
  dl/dt = h omega; noncentral pushes momentum with the constant force,
  dp/dt = f; double obeys dp/dt = -k q with q frozen.
* Hamiltonian flow of a user-supplied function on a chart,
  dz_a/dt = {H, z_a} = (Pi^T grad H)_a, with Pi the chart Poisson tensor.
  The orientation matches the bracket convention df/dt = {H, f}, which is
  the one that reproduces the group flows above when H is the pulled-back
  energy coordinate.

With the magnetic chart of the double model and H = |p|^2 / (2 m), the
momentum circles at frequency omega: the strength of the momentum
noncommutativity {p1, p2} = -m omega acts exactly like a magnetic field
of magnitude m omega (the flow only ever sees that product, exposed as
magnetic_strength).

The Poisson tensor is the closed form orbit_chart.chart_poisson at the
orbit's Casimir labels: read once for the chart-constant central1, central2
and double tensors, and at every right-hand-side evaluation for the
noncentral one, whose {j, p} and {j, q} entries depend on the state (there
through its one-point literal form, which skips the shape checks).

Integrators: classical RK4, and the implicit midpoint rule solved by fixed
point iteration (module constants: tolerance SOLVER_TOL = 1e-12, at most
MAX_ITERATIONS = 50 sweeps).  Midpoint re-reads the Poisson tensor at the
midpoint state, which handles the chart-dependent noncentral tensor.
Flows are sequential per trajectory; distinct trajectories can be
integrated concurrently.

Affine flows take one precomputed increment matrix per flow.  Two
Hamiltonians have an affine field z' = A z + b on their flow:

* a QuadraticHamiltonian (H = offset + slope . z + z . hessian z / 2; the
  kinetic Hamiltonian on every chart, and the energy on central1, central2
  and double) on a chart with a constant Poisson tensor, with
  A = Pi^T hessian and b = Pi^T slope;
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
(-pi, pi]).  What can drift is the energy, recorded per sample, and the
consistency of the final chart point with its labels, measured once by
reconstructing its dual point.

Hamiltonians broadcast like the group laws and chart maps: a Hamiltonian
maps chart coordinates (..., d) to energies (...).  The step loop only
calls the gradient; the energy series is one Hamiltonian call on the whole
(n, d) coordinate array once the trajectory (or the partial trajectory of
a failed flow) is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lie_core import ModelParams
from . import group_models as gm
from . import orbit_chart as oc
from .group_models import ModelId
from .orbit_chart import OrbitPoint

DEFAULT_PARAMS = ModelParams()

SOLVER_TOL = 1e-12  # the implicit midpoint's fixed-point tolerance
MAX_ITERATIONS = 50  # and its sweeps per step


class FlowSingularityError(ArithmeticError):
    """The flow hit a singular or non-finite state.

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


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """H(z) = offset + slope . z + z . hessian z / 2 on a chart.

    Called like any Hamiltonian, it maps chart coordinates (..., d) to
    energies (...): through closed_form where one is given, else through
    the quadratic itself.  The named Hamiltonians pass their closed forms,
    which equal the quadratic up to rounding and keep their energies bit
    for bit.  hessian (d, d) and slope (d,) are stored as read-only float
    arrays.  On a chart with a constant Poisson tensor, hamiltonian_flow
    integrates it by one precomputed increment matrix.
    """

    hessian: np.ndarray
    slope: np.ndarray
    offset: float = 0.0
    closed_form: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __post_init__(self):
        hessian = np.array(self.hessian, dtype=float)
        slope = np.array(self.slope, dtype=float)
        d = slope.size
        if slope.shape != (d,) or hessian.shape != (d, d):
            raise ValueError(f"quadratic hamiltonian needs a hessian (d, d) "
                             f"and a slope (d,), got {hessian.shape} and "
                             f"{slope.shape}")
        offset = float(self.offset)
        if not (np.isfinite(hessian).all() and np.isfinite(slope).all()
                and math.isfinite(offset)):
            raise ValueError("quadratic hamiltonian must have finite "
                             "coefficients")
        hessian.flags.writeable = slope.flags.writeable = False
        object.__setattr__(self, "hessian", hessian)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "offset", offset)

    def __call__(self, z) -> np.ndarray:
        if self.closed_form is not None:
            return self.closed_form(z)
        z = np.asarray(z, dtype=float)
        return (self.offset + z @ self.slope
                + 0.5 * np.einsum("...i,ij,...j->...", z, self.hessian, z))


@dataclass(frozen=True)
class NoncentralEnergy:
    """The energy coordinate on the noncentral chart (j, phi_f, p, q).

    H(z) = U - (f / mw_eff) (p sin phi_f + mw_eff q cos phi_f), with f the
    force magnitude, mw_eff = h / r**2, and U an orbit label.  Called
    like any Hamiltonian, it maps chart coordinates (..., 4) to energies
    (...); gradient maps one point (4,) to its gradient.  H does not depend
    on j, so its flow keeps phi_f fixed and is affine on that slice:
    hamiltonian_flow integrates it by one precomputed increment matrix.
    """

    f: float
    mw_eff: float
    U: float

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


@dataclass(frozen=True)
class FlowSpec:
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

    kind: str = "group-time-flow"
    dt: float = 1e-3
    nsteps: int = 10_000
    integrator: str = "implicit-midpoint"
    hamiltonian: Callable[[np.ndarray], np.ndarray | float] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("group-time-flow", "hamiltonian"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        dt, nsteps = self.dt, self.nsteps
        if not (isinstance(dt, (int, float, np.floating))
                and not isinstance(dt, bool) and math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be a finite positive number, got "
                             f"{dt!r}")
        if not (isinstance(nsteps, (int, np.integer))
                and not isinstance(nsteps, bool) and nsteps >= 1):
            raise ValueError(f"nsteps must be an integer of at least 1, got "
                             f"{nsteps!r}")
        if self.integrator not in ("rk4", "implicit-midpoint"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.kind == "hamiltonian" and self.hamiltonian is None:
            raise ValueError("hamiltonian flows need a hamiltonian")


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow: one row per time in every series.

    coords is the (n, d) array of chart coordinates and casimir_series the
    (n, len(casimir_names)) array of Casimir values: computed per sample
    from the dual point on group time flows, the orbit labels broadcast on
    Hamiltonian flows.  Hamiltonian flows also carry the energy per sample
    and casimir_residual, |Casimirs of the final point's dual
    reconstruction - labels| per Casimir name.
    """

    model: ModelId
    times: np.ndarray = field(repr=False)
    coords: np.ndarray = field(repr=False)
    casimir_names: tuple[str, ...]
    casimir_series: np.ndarray = field(repr=False)
    hamiltonian_series: np.ndarray | None = field(default=None, repr=False)
    casimir_residual: np.ndarray | None = field(default=None, repr=False)


def invariant_drift(traj: Trajectory) -> dict[str, float]:
    """Drift per named invariant, plus "H" for Hamiltonian flows.

    A Casimir's drift is its casimir_residual where the trajectory has one,
    else the max absolute deviation of its series from the initial value;
    H's is the max absolute deviation of the energy from its initial value.
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    if traj.casimir_residual is not None:
        out = {name: float(v) for name, v in
               zip(traj.casimir_names, traj.casimir_residual)}
    else:
        series = traj.casimir_series
        out = {
            name: float(np.max(np.abs(series[:, i] - series[0, i])))
            for i, name in enumerate(traj.casimir_names)
        }
    if traj.hamiltonian_series is not None:
        h = traj.hamiltonian_series
        out["H"] = float(np.max(np.abs(h - h[0])))
    return out


def magnetic_strength(params: ModelParams = DEFAULT_PARAMS) -> float:
    """The product m * omega measuring momentum noncommutativity."""
    return params.m * params.omega


def time_flow_exact(model: ModelId, xi0, t,
                    params: ModelParams = DEFAULT_PARAMS) -> np.ndarray:
    """Coadjoint action of the time-translation subgroup on the dual point.

    t may be an array of times; their axes lead the result's.
    """
    elements = np.multiply.outer(t, gm.algebra_vector(model, H=1.0))
    return gm.coadjoint(model, elements, xi0, params)


def _group_trajectory(model: ModelId, z0: OrbitPoint, spec: FlowSpec,
                      params: ModelParams) -> Trajectory:
    xi0 = oc.dual_from_chart(z0, params)
    times = spec.dt * np.arange(spec.nsteps + 1)
    points = oc.chart_from_dual(model, time_flow_exact(model, xi0, times,
                                                       params), params)
    return Trajectory(
        model=model,
        times=times,
        coords=points.coords,
        casimir_names=oc.CASIMIR_NAMES[model],
        casimir_series=points.labels,
    )


_CONSTANT_PI = (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.DOUBLE)


def _rhs_factory(model: ModelId, z0: OrbitPoint, spec: FlowSpec,
                 params: ModelParams):
    grad = spec.gradient or oc.gradient_fd(spec.hamiltonian)
    labels = z0.labels.tolist()  # Python floats for the per-step arithmetic
    if model in _CONSTANT_PI:
        # chart-constant Poisson tensor; only the noncentral chart carries
        # state-dependent entries
        pi_t = oc.chart_poisson(model, z0.coords, labels, params).T

        def rhs(z: np.ndarray) -> np.ndarray:
            return pi_t.dot(grad(z))
        return rhs

    mw = params.m_omega
    kappa = labels[0] / (mw * params.r**2)  # as in chart_poisson

    def rhs(z: np.ndarray) -> np.ndarray:
        return oc._noncentral_poisson(z, kappa, mw).T.dot(grad(z))
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


def _midpoint_step(rhs, z: np.ndarray, dt: float, tol: float = SOLVER_TOL,
                   max_iterations: int = MAX_ITERATIONS) -> np.ndarray:
    z_new = z + dt * rhs(z)
    scale = tol * (1.0 + float(_amax(abs(z))))
    for _ in range(max_iterations):
        z_next = z + dt * rhs(0.5 * (z + z_new))
        if _amax(abs(z_next - z_new)) < scale:
            return z_next
        z_new = z_next
    raise _no_convergence(tol, max_iterations)


def _no_convergence(tol: float, max_iterations: int) -> SolverConvergenceError:
    return SolverConvergenceError(
        f"implicit midpoint fixed point did not converge within "
        f"{max_iterations} iterations at tolerance {tol:.0e}"
    )


def _affine_field(model: ModelId, z0: OrbitPoint, spec: FlowSpec,
                  params: ModelParams) -> tuple[np.ndarray, np.ndarray] | None:
    """The field z' = A z + b (A (d, d), b (d,)) of an affine flow from z0.

    None unless the flow is affine: a QuadraticHamiltonian on a chart with
    a constant Poisson tensor, or a NoncentralEnergy on the noncentral
    chart, whose field is affine on z0's phi_f slice.  A given gradient is
    checked once, at z0, against the stepped right-hand side.
    """
    ham = spec.hamiltonian
    z = np.asarray(z0.coords, dtype=float)
    d = z.size
    if isinstance(ham, QuadraticHamiltonian) and model in _CONSTANT_PI:
        if ham.slope.shape != (d,):
            raise ValueError(f"quadratic hamiltonian has {ham.slope.size} "
                             f"coordinates, the {model.value} chart has {d}")
        pi_t = oc.chart_poisson(model, z, z0.labels, params).T
        a, b = pi_t @ ham.hessian, pi_t @ ham.slope
    elif isinstance(ham, NoncentralEnergy) and model is ModelId.NONCENTRAL:
        mw = params.m_omega
        kappa = float(z0.labels[0]) / (mw * params.r**2)  # as chart_poisson
        pi_t = oc._noncentral_poisson(z, kappa, mw).T
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
            raise _no_convergence(SOLVER_TOL, MAX_ITERATIONS)
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

    Group time flows are sampled from the exact coadjoint action, so their
    Casimir series exercises the full dual-space motion.  Hamiltonian flows
    advance the chart coordinates on z0's orbit: their Casimir series is
    z0's labels, and the drift they report is the energy series and the
    final point's reconstruction residual (see Trajectory).
    """
    if z0.model is not model:
        raise gm.ModelMismatchError("initial point belongs to "
                                    f"{z0.model.value}, not {model.value}")
    if spec.kind == "group-time-flow":
        return _group_trajectory(model, z0, spec, params)

    affine = _affine_field(model, z0, spec, params)
    increment = (None if affine is None
                 else _increment_matrix(*affine, spec.dt, spec.integrator))
    times = spec.dt * np.arange(spec.nsteps + 1)
    z = np.asarray(z0.coords, dtype=float)
    if increment is None:
        coords = np.empty((spec.nsteps + 1, z.size))
        coords[0] = z
    else:
        states = np.empty((spec.nsteps + 1, z.size + 1))
        states[0, :-1] = z
        states[0, -1] = 1.0
        coords = states[:, :-1]

    def trajectory(n: int) -> Trajectory:
        """The first n samples."""
        labels = z0.labels
        final = OrbitPoint(model, coords[n - 1], labels)
        # a failed flow's last rows may overflow here, to inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            rebuilt = oc.casimirs(model, oc.dual_from_chart(final, params),
                                  params)
            energies = _energy_series(spec.hamiltonian, coords[:n])
        return Trajectory(
            model=model,
            times=times[:n],
            coords=coords[:n],
            casimir_names=oc.CASIMIR_NAMES[model],
            casimir_series=np.broadcast_to(labels, (n, labels.size)),
            hamiltonian_series=energies,
            casimir_residual=np.abs(rebuilt - labels),
        )

    if increment is not None:
        if not np.isfinite(increment).all():
            raise FlowSingularityError(
                f"step 0: non-finite increment matrix at dt = {spec.dt!r}",
                step=0, partial=trajectory(1))
        # a state that overflows is found by the check after the loop
        with np.errstate(over="ignore", invalid="ignore"):
            _increment_steps(increment, states)
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            n = int(finite.argmin()) - 1
            raise FlowSingularityError(
                f"step {n}: non-finite state {coords[n + 1]}", step=n,
                partial=trajectory(n + 1))
        return _finite_diagnostics(trajectory(spec.nsteps + 1))

    rhs = _rhs_factory(model, z0, spec, params)
    rk4 = spec.integrator == "rk4"
    step = _rk4_step if rk4 else _midpoint_step
    # RK4 overflows fail the check below; midpoint ones fail to converge
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(spec.nsteps):
            try:
                z = step(rhs, z, spec.dt)
            except (oc.ChartDegeneracyError, oc.SingularityError) as exc:
                raise FlowSingularityError(f"step {n}: {exc}", step=n,
                                           partial=trajectory(n + 1)) from exc
            # _midpoint_step returns an iterate only when its distance to the
            # previous one is below a scale; a nan or inf component makes
            # that distance nan or inf, which never compares below it, so
            # only RK4 can step to a non-finite state
            if rk4 and not np.isfinite(z).all():
                raise FlowSingularityError(
                    f"step {n}: non-finite state {z}", step=n,
                    partial=trajectory(n + 1))
            coords[n + 1] = z
    return _finite_diagnostics(trajectory(spec.nsteps + 1))


def _finite_diagnostics(traj: Trajectory) -> Trajectory:
    """traj, unless its energies or Casimir residual overflow.

    The states are finite, but a point far out on the chart can have an
    energy or a reconstructed dual point beyond the float range; that
    raises FlowSingularityError (with no partial trajectory), naming the
    step that reached the first non-finite energy.
    """
    energies, residual = traj.hamiltonian_series, traj.casimir_residual
    finite = np.isfinite(energies)
    if finite.all() and np.isfinite(residual).all():
        return traj
    n = len(energies) - 1 if finite.all() else int(finite.argmin())
    step = max(n - 1, 0)
    raise FlowSingularityError(
        f"step {step}: the energy {float(energies[n])} or the Casimir "
        f"residual {residual.tolist()} overflows at a finite state",
        step=step)


def kinetic_hamiltonian(model: ModelId, params: ModelParams = DEFAULT_PARAMS):
    """(H, grad H) for H = |p|^2 / (2 m) on the model's chart.

    H is a QuadraticHamiltonian and maps coordinates (..., d) to (...).  On
    the double chart this is the magnetic example: p circles at frequency
    omega with period 2 pi / omega.
    """
    names = oc.CHART_COORDS[model]
    idx = [i for i, name in enumerate(names) if name in ("p", "p1", "p2")]
    # the momentum coordinates are adjacent in every chart
    mom = slice(idx[0], idx[-1] + 1)
    m = params.m
    # grad H = z / mass: m on the momentum slots, inf (giving zeros) elsewhere
    mass = np.full(len(names), np.inf)
    mass[mom] = m

    def ham(z: np.ndarray) -> np.ndarray:
        return (z[..., mom] ** 2).sum(axis=-1) / (2.0 * m)

    def grad(z: np.ndarray) -> np.ndarray:
        return z / mass
    return QuadraticHamiltonian(np.diag(1.0 / mass), np.zeros(len(names)),
                                closed_form=ham), grad


def energy_hamiltonian(model: ModelId, point: OrbitPoint,
                       params: ModelParams = DEFAULT_PARAMS):
    """(H, grad H) for the energy coordinate E pulled back to the chart.

    H maps coordinates (..., d) to (...); it is a QuadraticHamiltonian on
    every chart but the noncentral one, where it is a NoncentralEnergy.
    Generates exactly the group time flow, restricted to the chart, so it
    reproduces dl/dt = h omega (central2), dp/dt = f (noncentral) and
    dp/dt = -k q (double).
    """
    names = oc.CASIMIR_NAMES.get(model)
    if names is None:
        raise gm.ModelMismatchError(f"model {model.value} has no orbit chart")
    lab = dict(zip(names, point.labels.tolist()))
    r2 = params.r**2
    if model is ModelId.CENTRAL1:
        E = lab["E"]

        def ham(z):
            return np.full(np.shape(z)[:-1], E)

        def grad(z):
            return np.zeros(2)
        quadratic = np.zeros((2, 2)), np.zeros(2), E
    elif model is ModelId.CENTRAL2:
        hw = lab["h"] * params.omega

        def ham(z):
            return -hw * z[..., 3]

        def grad(z):
            return np.array([0.0, 0.0, 0.0, -hw])
        quadratic = np.zeros((4, 4)), [0.0, 0.0, 0.0, -hw], 0.0
    elif model is ModelId.NONCENTRAL:
        energy = NoncentralEnergy(lab["f"], lab["h"] / r2, lab["U"])
        return energy, energy.gradient
    else:  # double; the lookup above rejected the models without a chart
        k, U = lab["k"], lab["U"]

        def ham(z):
            return U + 0.5 * k * (z[..., 2] ** 2 + z[..., 3] ** 2)

        def grad(z):
            return np.array([0.0, 0.0, k * z[2], k * z[3]])
        quadratic = np.diag([0.0, 0.0, k, k]), np.zeros(4), U
    return QuadraticHamiltonian(*quadratic, closed_form=ham), grad
