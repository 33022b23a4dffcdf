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
point iteration (tolerance 1e-12, at most 50 sweeps).  Midpoint re-reads
the Poisson tensor at the midpoint state, which handles the chart-dependent
noncentral tensor.  Flows are sequential per trajectory; distinct
trajectories can be integrated concurrently.

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


@dataclass(frozen=True)
class FlowSpec:
    """What to integrate and how.

    kind is "group-time-flow" or "hamiltonian".  For the latter,
    hamiltonian maps chart coordinates (..., d) to energies (...), with
    leading batch axes as in the chart maps: the flow calls it once, on
    the (n, d) array of its samples, for the energy series.  A scalar
    result is every sample's energy; any other shape than (n,) raises
    ValueError.  gradient (if given) maps one point (d,) to its gradient
    (d,); otherwise central finite differences of hamiltonian are used.
    """

    kind: str = "group-time-flow"
    dt: float = 1e-3
    nsteps: int = 10_000
    integrator: str = "implicit-midpoint"
    hamiltonian: Callable[[np.ndarray], np.ndarray | float] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    solver_tol: float = 1e-12
    max_iterations: int = 50

    def __post_init__(self):
        if self.kind not in ("group-time-flow", "hamiltonian"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        for name in ("dt", "solver_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.floating))
                    and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, "
                                 f"got {value!r}")
        for name in ("nsteps", "max_iterations"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer))
                    and not isinstance(value, bool) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, "
                                 f"got {value!r}")
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

    def drift(self) -> dict[str, float]:
        return invariant_drift(self)


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


def _midpoint_step(rhs, z: np.ndarray, dt: float, tol: float,
                   max_iterations: int) -> np.ndarray:
    z_new = z + dt * rhs(z)
    scale = tol * (1.0 + float(_amax(abs(z))))
    for _ in range(max_iterations):
        z_next = z + dt * rhs(0.5 * (z + z_new))
        if _amax(abs(z_next - z_new)) < scale:
            return z_next
        z_new = z_next
    raise SolverConvergenceError(
        f"implicit midpoint fixed point did not converge within "
        f"{max_iterations} iterations at tolerance {tol:.0e}"
    )


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

    rhs = _rhs_factory(model, z0, spec, params)
    rk4 = spec.integrator == "rk4"
    step = (_rk4_step if rk4
            else lambda f, z, dt: _midpoint_step(f, z, dt, spec.solver_tol,
                                                 spec.max_iterations))
    times = spec.dt * np.arange(spec.nsteps + 1)
    z = np.asarray(z0.coords, dtype=float)
    coords = np.empty((spec.nsteps + 1, z.size))
    coords[0] = z

    def trajectory(n: int) -> Trajectory:
        """The first n samples."""
        labels = z0.labels
        final = OrbitPoint(model, coords[n - 1], labels)
        rebuilt = oc.casimirs(model, oc.dual_from_chart(final, params), params)
        return Trajectory(
            model=model,
            times=times[:n],
            coords=coords[:n],
            casimir_names=oc.CASIMIR_NAMES[model],
            casimir_series=np.broadcast_to(labels, (n, labels.size)),
            hamiltonian_series=_energy_series(spec.hamiltonian, coords[:n]),
            casimir_residual=np.abs(rebuilt - labels),
        )

    for n in range(spec.nsteps):
        try:
            z = step(rhs, z, spec.dt)
        except (oc.ChartDegeneracyError, oc.SingularityError) as exc:
            raise FlowSingularityError(f"step {n}: {exc}", step=n,
                                       partial=trajectory(n + 1)) from exc
        # _midpoint_step returns an iterate only when its distance to the
        # previous one is below a scale; a nan or inf component makes that
        # distance nan or inf, which never compares below it, so only RK4
        # can step to a non-finite state
        if rk4 and not np.isfinite(z).all():
            raise FlowSingularityError(
                f"step {n}: non-finite state {z}", step=n,
                partial=trajectory(n + 1))
        coords[n + 1] = z
    return trajectory(spec.nsteps + 1)


def kinetic_hamiltonian(model: ModelId, params: ModelParams = DEFAULT_PARAMS):
    """(H, grad H) for H = |p|^2 / (2 m) on the model's chart.

    H maps coordinates (..., d) to (...).  On the double chart this is the
    magnetic example: p circles at frequency omega with period 2 pi / omega.
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
    return ham, grad


def energy_hamiltonian(model: ModelId, point: OrbitPoint,
                       params: ModelParams = DEFAULT_PARAMS):
    """(H, grad H) for the energy coordinate E pulled back to the chart.

    H maps coordinates (..., d) to (...).  Generates exactly the group
    time flow, restricted to the chart, so it reproduces dl/dt = h omega
    (central2) and dp/dt = -k q (double).
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
    elif model is ModelId.CENTRAL2:
        hw = lab["h"] * params.omega

        def ham(z):
            return -hw * z[..., 3]

        def grad(z):
            return np.array([0.0, 0.0, 0.0, -hw])
    elif model is ModelId.NONCENTRAL:
        fmag, U = lab["f"], lab["U"]
        mw_eff = lab["h"] / r2

        def ham(z):
            phi_f, p, q = z[..., 1], z[..., 2], z[..., 3]
            return U - (fmag / mw_eff) * (
                p * np.sin(phi_f) + mw_eff * q * np.cos(phi_f))

        def grad(z):
            _, phi_f, p, q = z
            v = fmag / mw_eff
            return np.array([
                0.0,
                -v * (p * np.cos(phi_f) - mw_eff * q * np.sin(phi_f)),
                -v * np.sin(phi_f),
                -fmag * np.cos(phi_f),
            ])
    else:  # double; the lookup above rejected the models without a chart
        k, U = lab["k"], lab["U"]

        def ham(z):
            return U + 0.5 * k * (z[..., 2] ** 2 + z[..., 3] ** 2)

        def grad(z):
            return np.array([0.0, 0.0, k * z[2], k * z[3]])
    return ham, grad
