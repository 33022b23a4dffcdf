"""Quadratic Hamiltonians on constant-Poisson charts: increment-matrix flows.

The reference is the stepped integrator, reached by handing the flow the
same Hamiltonian as a plain callable.
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
    assert dynamics._affine_increment(
        model, ao.orbit_point(model, (0.1, 0.5, 0.2, 0.3), PARAMS),
        FlowSpec(kind="hamiltonian", hamiltonian=ham, gradient=grad),
        PARAMS) is None
