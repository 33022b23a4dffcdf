"""Affine Hamiltonian flows: increment-matrix flows taken in blocks.

Quadratic Hamiltonians on constant-Poisson charts, and the noncentral
energy on its phi_f slice.  The reference is the stepped integrator,
reached by handing the flow the same Hamiltonian as a plain callable, and
for the block stepping the one-step loop z <- z + D z.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aristotle_orbits as ao
from aristotle_orbits import (FlowSpec, ModelId, ModelParams,
                              QuadraticHamiltonian)
from aristotle_orbits import dynamics

PARAMS = ModelParams()
LINEAR_MODELS = (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.DOUBLE)
# orbit_point keywords per chart: (charges, hidden dual coordinates)
_LABELS = {
    ModelId.CENTRAL1: (("l",), ("E", "j")),
    ModelId.CENTRAL2: (("h",), ("j",)),
    ModelId.DOUBLE: (("h", "k"), ("j", "E")),
}


def _named(name, model, point, params):
    if name == "kinetic":
        return ao.kinetic_hamiltonian(model, params)
    return ao.energy_hamiltonian(model, point, params)


def _flow(model, point, params, ham, grad, integrator, dt, nsteps):
    spec = FlowSpec(kind="hamiltonian", dt=dt, nsteps=nsteps,
                    integrator=integrator, hamiltonian=ham, gradient=grad)
    return ao.hamiltonian_flow(model, spec, point, params)


_scale = st.floats(0.5, 2.0)
_charge = st.tuples(st.sampled_from((-1.0, 1.0)), _scale).map(
    lambda t: t[0] * t[1])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(model=st.sampled_from(LINEAR_MODELS),
       name=st.sampled_from(("kinetic", "energy")),
       integrator=st.sampled_from(("rk4", "implicit-midpoint")),
       data=st.data())
def test_increment_flow_matches_the_stepped_flow(model, name, integrator,
                                                 data):
    params = ModelParams(m=data.draw(_scale), omega=data.draw(_scale),
                         r=data.draw(_scale))
    charges, hidden = _LABELS[model]
    labels = {key: data.draw(_charge) for key in charges}
    labels.update({key: data.draw(st.floats(-2.0, 2.0)) for key in hidden})
    d = len(ao.CHART_COORDS[model])
    coords = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                max_size=d))
    dt = data.draw(st.floats(1e-4, 5e-2))
    nsteps = data.draw(st.integers(1, 200))
    point = ao.orbit_point(model, coords, params, **labels)
    ham, grad = _named(name, model, point, params)
    assert isinstance(ham, QuadraticHamiltonian)
    fast = _flow(model, point, params, ham, grad, integrator, dt, nsteps)
    stepped = _flow(model, point, params, lambda z: ham(z), grad,
                    integrator, dt, nsteps)
    size = 1.0 + np.abs(stepped.coords).max()
    bound = (1e-12 if integrator == "rk4"
             else nsteps * dynamics.SOLVER_TOL) * size
    assert np.abs(fast.coords - stepped.coords).max() <= bound
    assert np.array_equal(fast.times, stepped.times)


def _cyclotron(integrator="rk4", dt=1e-2, nsteps=50, grad=None, ham=None):
    kin, kin_grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=dt, nsteps=nsteps,
                    integrator=integrator, hamiltonian=ham or kin,
                    gradient=grad or kin_grad)
    return ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)


@pytest.mark.parametrize("integrator", ["rk4", "implicit-midpoint"])
def test_named_flow_calls_its_gradient_once(integrator):
    # a wrapped gradient (as a tracer would install) keeps the matrix path:
    # the one-point check at z0 is its only call
    _, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    calls = []

    def counted(z):
        calls.append(1)
        return grad(z)

    traj = _cyclotron(integrator, nsteps=500, grad=counted)
    assert len(traj.times) == 501
    assert len(calls) == 1


def test_a_gradient_that_is_not_the_declared_one_is_rejected():
    _, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    with pytest.raises(ValueError, match="disagrees") as info:
        _cyclotron(grad=lambda z: 1.001 * grad(z))
    assert "\n" not in str(info.value)


def test_midpoint_keeps_the_solver_contract():
    # dt far above the fixed-point contraction bound, as on the stepped path
    with pytest.raises(ao.SolverConvergenceError,
                       match="did not converge within 50 iterations"):
        _cyclotron("implicit-midpoint", dt=3.0, nsteps=5)


def test_non_finite_increment_carries_a_partial_trajectory():
    with pytest.raises(ao.FlowSingularityError, match="step 0") as info:
        _cyclotron("rk4", dt=1e300, nsteps=3)
    partial = info.value.partial
    assert info.value.step == 0
    assert partial.coords.shape == (1, 4)
    assert np.array_equal(partial.coords[0], (0.8, -0.4, 0.2, 0.6))


# the partial trajectory's last rows are near overflow, so its energies
# and Casimir residual overflow as on the stepped path
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_state_stops_at_its_step():
    # hA is finite but |1 + D| is about 1e4 per step: the state overflows
    # after about 80 steps, and the partial trajectory ends before it
    with pytest.raises(ao.FlowSingularityError, match="non-finite state") \
            as info:
        _cyclotron("rk4", dt=10.0, nsteps=1000)
    exc = info.value
    assert 0 < exc.step < 1000
    assert len(exc.partial.times) == exc.step + 1
    assert np.isfinite(exc.partial.coords).all()


def test_quadratic_hamiltonian_evaluates_its_coefficients():
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, (3, 3))
    ham = QuadraticHamiltonian(s + s.T, [0.5, -1.0, 2.0], 0.25)
    z = rng.uniform(-1, 1, (7, 3))
    want = [0.25 + ham.slope @ v + 0.5 * v @ ham.hessian @ v for v in z]
    assert np.allclose(ham(z), want, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        ham.hessian[0, 0] = 1.0
    with pytest.raises(ValueError, match="hessian"):
        QuadraticHamiltonian(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        QuadraticHamiltonian(np.eye(2), [np.nan, 0.0])


def test_quadratic_hamiltonian_without_a_gradient_takes_the_matrix_path():
    kin, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    plain = QuadraticHamiltonian(kin.hessian, kin.slope)
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=100,
                    integrator="rk4", hamiltonian=plain)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    reference = _cyclotron("rk4", nsteps=100, ham=lambda z: kin(z))
    assert np.abs(traj.coords - reference.coords).max() < 1e-12
    assert np.allclose(traj.hamiltonian_series, kin(traj.coords),
                       rtol=0, atol=1e-15)


def test_noncentral_quadratic_keeps_the_stepped_path():
    model = ModelId.NONCENTRAL
    ham, grad = ao.kinetic_hamiltonian(model, PARAMS)
    assert isinstance(ham, QuadraticHamiltonian)
    assert dynamics._affine_field(
        model, ao.orbit_point(model, (0.1, 0.5, 0.2, 0.3), PARAMS),
        FlowSpec(kind="hamiltonian", hamiltonian=ham, gradient=grad),
        PARAMS) is None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(integrator=st.sampled_from(("rk4", "implicit-midpoint")),
       data=st.data())
def test_noncentral_energy_flow_matches_the_stepped_flow(integrator, data):
    model = ModelId.NONCENTRAL
    params = ModelParams(m=data.draw(_scale), omega=data.draw(_scale),
                         r=data.draw(_scale))
    labels = {"h": data.draw(_charge), "f": data.draw(_scale),
              "E": data.draw(st.floats(-2.0, 2.0))}
    coords = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=4,
                                max_size=4))
    dt = data.draw(st.floats(1e-4, 5e-2))
    nsteps = data.draw(st.integers(1, 200))
    point = ao.orbit_point(model, coords, params, **labels)
    ham, grad = ao.energy_hamiltonian(model, point, params)
    assert isinstance(ham, dynamics.NoncentralEnergy)
    fast = _flow(model, point, params, ham, grad, integrator, dt, nsteps)
    stepped = _flow(model, point, params, lambda z: ham(z), grad,
                    integrator, dt, nsteps)
    size = 1.0 + np.abs(stepped.coords).max()
    bound = (1e-12 if integrator == "rk4"
             else nsteps * dynamics.SOLVER_TOL) * size
    assert np.abs(fast.coords - stepped.coords).max() <= bound
    assert np.array_equal(fast.times, stepped.times)
    assert (fast.coords[:, 1] == point.coords[1]).all()  # phi_f stays put


def _increment(model, z0, integrator, dt, ham):
    spec = FlowSpec(kind="hamiltonian", dt=dt, integrator=integrator,
                    hamiltonian=ham)
    field = dynamics._affine_field(model, z0, spec, PARAMS)
    return dynamics._increment_matrix(*field, dt, integrator)


def _increments():
    double = ModelId.DOUBLE
    kin, _ = ao.kinetic_hamiltonian(double, PARAMS)
    z0 = ao.orbit_point(double, (0.8, -0.4, 0.2, 0.6), PARAMS)
    noncentral = ModelId.NONCENTRAL
    z1 = ao.orbit_point(noncentral, (0.4, 0.7, 0.3, -0.2), PARAMS, h=0.7,
                        f=1.1)
    energy, _ = ao.energy_hamiltonian(noncentral, z1, PARAMS)
    return {
        "cyclotron-rk4": (_increment(double, z0, "rk4", 1e-2, kin), z0),
        "cyclotron-midpoint": (_increment(double, z0, "implicit-midpoint",
                                          1e-2, kin), z0),
        "noncentral-midpoint": (_increment(noncentral, z1,
                                           "implicit-midpoint", 1e-2,
                                           energy), z1),
    }


@pytest.mark.parametrize("case", ["cyclotron-rk4", "cyclotron-midpoint",
                                  "noncentral-midpoint"])
@pytest.mark.parametrize("nsteps", [1, 63, 64, 65, 200])
def test_block_steps_match_the_one_step_loop(case, nsteps):
    increment, z0 = _increments()[case]
    states = np.empty((nsteps + 1, 5))
    states[0] = (*z0.coords, 1.0)
    dynamics._increment_steps(increment, states)
    loop = np.empty_like(states)
    loop[0] = z = states[0]
    for n in range(nsteps):
        loop[n + 1] = z = z + increment @ z
    # rounding only: about a unit in the last place per step
    eps = np.finfo(float).eps
    bound = 2 * eps * np.arange(1, nsteps + 2) * (1.0 + np.abs(loop).max())
    assert (np.abs(states - loop).max(axis=1) <= bound).all()
    assert (states[:, -1] == 1.0).all()


# the partial trajectories' last rows are near overflow (see above)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dt,point", [
    (10.0, (0.8, -0.4, 0.2, 0.6)),
    # M_j overflows from j = 56, long before the tiny state does
    (50.0, (1e-200, 0.0, 0.0, 0.0)),
], ids=["state-overflow", "block-matrix-overflow"])
def test_overflow_stops_at_the_step_of_the_one_step_loop(dt, point):
    kin, _ = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, point, PARAMS)
    increment = _increment(ModelId.DOUBLE, z0, "rk4", dt, kin)
    z = np.array([*z0.coords, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1000):
            z = z + increment @ z
            if not np.isfinite(z).all():
                break
    spec = FlowSpec(kind="hamiltonian", dt=dt, nsteps=1000, integrator="rk4",
                    hamiltonian=kin)
    with pytest.raises(ao.FlowSingularityError, match="non-finite state") \
            as info:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert info.value.step == n
    assert np.isfinite(info.value.partial.coords).all()


@pytest.mark.parametrize("wrong", ["scaled", "j-slot"])
def test_noncentral_energy_rejects_a_gradient_that_is_not_its_own(wrong):
    model = ModelId.NONCENTRAL
    z0 = ao.orbit_point(model, (0.4, 0.7, 0.3, -0.2), PARAMS, f=1.1)
    ham, grad = ao.energy_hamiltonian(model, z0, PARAMS)
    if wrong == "scaled":
        def bad(z):
            return 1.001 * grad(z)
    else:  # dH/dj != 0 would turn phi_f
        def bad(z):
            return grad(z) + (1e-6, 0.0, 0.0, 0.0)
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=10,
                    hamiltonian=ham, gradient=bad)
    with pytest.raises(ValueError, match="disagrees") as info:
        ao.hamiltonian_flow(model, spec, z0, PARAMS)
    assert "\n" not in str(info.value)


def test_energy_that_overflows_at_a_finite_state_is_a_flow_singularity():
    # the states stay finite, but |p|^2 / 2 overflows from the first sample
    kin, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (1e200, 0.0, 0.0, 0.0), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=10,
                    hamiltonian=kin, gradient=grad)
    with pytest.raises(ao.FlowSingularityError, match="overflows") as info:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert info.value.step == 0
    assert info.value.partial is None
