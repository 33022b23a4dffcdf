import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import FlowSpec, ModelId, ModelParams
from aristotle_orbits import cli, dynamics, group_models, orbit_chart
from aristotle_orbits.dynamics import _midpoint_step, _rk4_step
from helpers import EPS0, cyclotron_exact, label_defect

PARAMS = ModelParams()
CHART_MODELS = [ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE]


# ----------------------------------------------------------- exact flows

def test_time_flow_zero_duration():
    xi = ao.dual_vector(ModelId.DOUBLE, j=0.2, p1=1.0, f1=0.3, h=1.0, k=1.0)
    assert np.array_equal(ao.time_flow_exact(ModelId.DOUBLE, xi, 0.0, PARAMS),
                          xi)


def test_central2_action_rate():
    xi = ao.dual_vector(ModelId.CENTRAL2, l=0.0, h=1.0)
    out = ao.time_flow_exact(ModelId.CENTRAL2, xi, 2.0, PARAMS)
    assert out[4] == pytest.approx(2.0)


def test_double_hooke_flow_values():
    xi = ao.dual_vector(ModelId.DOUBLE, h=1.0, k=1.0, f1=-1.0)
    # f = (-1, 0) means q = (1, 0); after t = 3: p = (-3, 0), q frozen
    out = ao.time_flow_exact(ModelId.DOUBLE, xi, 3.0, PARAMS)
    point = ao.chart_from_dual(ModelId.DOUBLE, out, PARAMS)
    assert point.coords == pytest.approx((-3.0, 0.0, 1.0, 0.0))


@pytest.mark.parametrize("model", CHART_MODELS)
def test_time_flow_group_property(model):
    rng = np.random.default_rng(41)
    for _ in range(30):
        xi = ao.sample_dual(model, rng, nondegenerate=True)
        t1, t2 = rng.uniform(-1, 1, 2)
        a = ao.time_flow_exact(model, xi, float(t1 + t2), PARAMS)
        b = ao.time_flow_exact(
            model, ao.time_flow_exact(model, xi, float(t2), PARAMS),
            float(t1), PARAMS)
        assert np.max(np.abs(a - b)) < 1e-12


def test_group_flow_trajectory_conserves_casimirs_exactly():
    duals = {
        ModelId.CENTRAL1: dict(j=0.4, p1=0.3, p2=-0.2, E=0.7, l=1.0),
        ModelId.CENTRAL2: dict(j=0.4, p1=0.3, p2=-0.2, E=0.7, l=0.6, h=1.0),
        ModelId.NONCENTRAL: dict(j=0.4, p1=0.3, p2=-0.2, E=0.7, f1=0.5,
                                 f2=-0.1, h=1.0),
        ModelId.DOUBLE: dict(j=0.4, p1=0.3, p2=-0.2, E=0.7, f1=0.5, f2=-0.1,
                             h=1.0, k=1.0),
    }
    spec = FlowSpec(kind="group-time-flow", dt=0.01, nsteps=200)
    rng = np.random.default_rng(107)
    for model, coords in duals.items():
        # the listed dual point and 50 sampled ones
        for xi in [ao.dual_vector(model, **coords),
                   *ao.sample_dual(model, rng, nondegenerate=True, size=50)]:
            z0 = ao.chart_from_dual(model, xi, PARAMS)
            traj = ao.hamiltonian_flow(model, spec, z0, PARAMS)
            drift = ao.invariant_drift(traj)
            for name in ao.CASIMIR_NAMES[model]:
                assert drift[name] < 1e-12, (model, xi, name)


def _bits(a):
    """The bytes of a with signed zeros made positive."""
    return (np.asarray(a) + 0.0).tobytes()


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_time_flow_exact_equals_the_coadjoint_group_law(model):
    # the line xi0 + t ad*_H xi0 against Ad*_{exp(tH)} by the closed-form
    # group law, on a single time, on time stacks whose axes lead, and on
    # dual stacks that match them or broadcast against them
    rng = np.random.default_rng(17)
    e_h = ao.algebra_vector(model, H=1.0)
    for _ in range(20):
        params = ModelParams(*rng.uniform(0.5, 2.0, 3))
        t = rng.uniform(-3.0, 3.0, (5, 7))
        cases = [(float(t[0, 0]), ao.sample_dual(model, rng)),
                 (t, ao.sample_dual(model, rng)),
                 (t, ao.sample_dual(model, rng, size=(5, 7))),
                 (t, ao.sample_dual(model, rng, size=7))]
        for times, xi in cases:
            got = ao.time_flow_exact(model, xi, times, params)
            want = ao.coadjoint(model, np.multiply.outer(times, e_h), xi,
                                params)
            assert got.shape == want.shape == np.shape(times) + xi.shape[-1:]
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_time_translation_coadjoint_matrix_squares_to_zero(model):
    # the premise that makes the group time flow a straight line
    rng = np.random.default_rng(18)
    e_h = ao.algebra_vector(model, H=1.0)
    for _ in range(20):
        params = ModelParams(*rng.uniform(0.1, 10.0, 3))
        coad = ao.coad_matrix(ao.structure_tensor(model, params), e_h)
        assert not (coad @ coad).any()


def test_group_flow_beyond_the_float_range_names_its_step():
    xi = ao.dual_vector(ModelId.DOUBLE, j=0.3, p1=0.5, p2=-0.2, E=0.1,
                        f1=0.6, f2=-0.4, h=1.0, k=0.7)
    z0 = ao.chart_from_dual(ModelId.DOUBLE, xi, PARAMS)
    spec = FlowSpec(kind="group-time-flow", dt=1e305, nsteps=10_000)
    with pytest.raises(dynamics.FlowSingularityError) as exc:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    # 1797e305 is finite and 1798e305 is not: sample 1798, reached by step 1797
    assert exc.value.step == 1797
    assert exc.value.partial is None
    assert len(str(exc.value).splitlines()) == 1


def test_group_flow_with_an_int_dt_beyond_int64_equals_the_float_dt():
    # dt = 10**200 is a finite scale; held as an int it raised an
    # OverflowError where numpy made it an int64
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.1, 0.2, 0.3, 0.4), PARAMS)
    trajs = [ao.hamiltonian_flow(ModelId.DOUBLE,
                                 FlowSpec(dt=dt, nsteps=3), z0, PARAMS)
             for dt in (10**200, 1e200)]
    assert type(FlowSpec(dt=10**200).dt) is float
    for name in ("times", "coords", "casimir_series"):
        assert np.array_equal(getattr(trajs[0], name),
                              getattr(trajs[1], name), equal_nan=True)
    assert trajs[0].times[-1] == 3e200


def test_invariant_drift_single_step_is_zero():
    z0 = ao.orbit_point(ModelId.CENTRAL1, (0.5, -0.3), PARAMS)
    spec = FlowSpec(kind="group-time-flow", dt=0.1, nsteps=1)
    traj = ao.hamiltonian_flow(ModelId.CENTRAL1, spec, z0, PARAMS)
    assert all(v == 0.0 for v in ao.invariant_drift(traj).values())


@pytest.mark.parametrize("model", CHART_MODELS, ids=lambda m: m.value)
def test_invariant_drift_reports_only_what_can_drift(model):
    # a group flow recomputes its Casimirs at every sample, so each one can
    # drift; a Hamiltonian flow's Casimir columns are its orbit's labels by
    # construction, so only its energy can
    xi = ao.sample_dual(model, np.random.default_rng(23), nondegenerate=True)
    z0 = ao.chart_from_dual(model, xi, PARAMS)
    spec = FlowSpec(kind="group-time-flow", dt=1e-2, nsteps=20)
    group = ao.hamiltonian_flow(model, spec, z0, PARAMS)
    names = ao.CASIMIR_NAMES[model]
    assert list(ao.invariant_drift(group)) == list(names)
    # and the group flow's drift fails on a sample that leaves the orbit
    series = group.casimir_series.copy()
    series[-1, -1] += 1e-6
    drift = ao.invariant_drift(ao.Trajectory(
        model, group.times, group.coords, series))
    assert drift[names[-1]] == pytest.approx(1e-6, rel=1e-6)
    ham, grad = ao.kinetic_hamiltonian(model, PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=20, hamiltonian=ham,
                    gradient=grad)
    assert list(ao.invariant_drift(ao.hamiltonian_flow(model, spec, z0,
                                                       PARAMS))) == ["H"]


# ------------------------------------------------------ hamiltonian flows

def test_constant_hamiltonian_freezes_the_state():
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.2, 0.4, -0.1, 0.3), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=0.05, nsteps=50,
                    hamiltonian=lambda z: 1.0,
                    gradient=lambda z: np.zeros(4))
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert np.max(np.abs(traj.coords - traj.coords[0])) == 0.0


def test_cyclotron_orbit_matches_closed_form():
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=1000,
                    integrator="rk4", hamiltonian=ham, gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    t_end = traj.times[-1]
    p_exact, q_exact = cyclotron_exact(np.array([1.0, 0.0]),
                                       np.array([0.0, 0.0]), t_end, PARAMS)
    assert np.allclose(traj.coords[-1][:2], p_exact, atol=1e-10)
    assert np.allclose(traj.coords[-1][2:], q_exact, atol=1e-10)


def test_cyclotron_period_with_implicit_midpoint():
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    period = 2 * np.pi / PARAMS.omega
    n = int(round(period / 1e-3))
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=n,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    p = traj.coords[:, :2]
    angles = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
    rate = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
    measured_period = 2 * np.pi / abs(rate)
    assert abs(measured_period - period) < 1e-6
    assert ao.invariant_drift(traj)["H"] < 1e-9
    # every sample, not only the last, reconstructs a dual point on z0's orbit
    assert label_defect(traj, z0.labels, PARAMS).max() < 1e-9


def test_rk4_energy_drift_small_on_long_cyclotron_run():
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=10_000,
                    integrator="rk4", hamiltonian=ham, gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert ao.invariant_drift(traj)["H"] < 1e-8


def test_rk4_fourth_order_convergence_on_cyclotron():
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    p0, q0 = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    t_end = 2 * np.pi
    errors = []
    for nsteps in (64, 128, 256, 512):
        spec = FlowSpec(kind="hamiltonian", dt=t_end / nsteps, nsteps=nsteps,
                        integrator="rk4", hamiltonian=ham, gradient=grad)
        z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
        traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
        p_exact, q_exact = cyclotron_exact(p0, q0, t_end, PARAMS)
        errors.append(np.max(np.abs(
            traj.coords[-1] - np.concatenate([p_exact, q_exact]))))
    for e0, e1 in zip(errors, errors[1:]):
        assert 14.0 < e0 / e1 < 18.0


def test_double_energy_flow_matches_exact_time_flow():
    xi = ao.dual_vector(ModelId.DOUBLE, j=0.1, p1=0.2, p2=0.5, E=0.3,
                        f1=-0.6, f2=0.4, h=1.0, k=1.0)
    z0 = ao.chart_from_dual(ModelId.DOUBLE, xi, PARAMS)
    ham, grad = ao.energy_hamiltonian(ModelId.DOUBLE, z0, PARAMS)
    t_end = 1.0
    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=100,
                    integrator="rk4", hamiltonian=ham, gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    exact = ao.chart_from_dual(
        ModelId.DOUBLE, ao.time_flow_exact(ModelId.DOUBLE, xi, t_end, PARAMS),
        PARAMS)
    assert np.max(np.abs(traj.coords[-1] - exact.coords)) < 1e-12


def test_central2_energy_flow_advances_l():
    z0 = ao.orbit_point(ModelId.CENTRAL2, (0.3, -0.2, 0.0, 0.1), PARAMS)
    ham, grad = ao.energy_hamiltonian(ModelId.CENTRAL2, z0, PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=100,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.CENTRAL2, spec, z0, PARAMS)
    h, _ = z0.labels
    hw = h * PARAMS.omega
    # dl/dt = h omega; p, q, alpha frozen
    assert traj.coords[-1][2] == pytest.approx(hw * 1.0, abs=1e-9)
    assert np.max(np.abs(traj.coords[-1][[0, 1, 3]]
                         - traj.coords[0][[0, 1, 3]])) < 1e-12


def test_noncentral_canonical_flow_moves_only_the_angle():
    z0 = ao.orbit_point(ModelId.NONCENTRAL, (0.4, 0.7, 0.3, -0.2), PARAMS,
                        f=1.1)

    def ham(z):
        point = ao.OrbitPoint(ModelId.NONCENTRAL, z, z0.labels)
        return ao.canonicalize_noncentral(point, PARAMS)[..., 0]

    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=100,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=dynamics.canonical_hamiltonian(PARAMS)[1])
    traj = ao.hamiltonian_flow(ModelId.NONCENTRAL, spec, z0, PARAMS)
    # d(tau)/dt = 1 means d(phi_f)/dt = omega; j, p, q frozen
    assert traj.coords[-1][1] - traj.coords[0][1] == pytest.approx(
        PARAMS.omega * 1.0, abs=1e-9)
    assert np.max(np.abs(traj.coords[-1][[0, 2, 3]]
                         - traj.coords[0][[0, 2, 3]])) < 1e-9
    assert ao.invariant_drift(traj)["H"] < 1e-12


def test_casimir_drift_small_under_midpoint_kinetic_flow():
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=10_000,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert label_defect(traj, z0.labels, PARAMS).max() < 1e-6


@pytest.mark.parametrize("model", CHART_MODELS)
def test_kinetic_hamiltonian_matches_per_coordinate_loop(model):
    params = ModelParams(m=1.7)
    ham, grad = ao.kinetic_hamiltonian(model, params)
    idx = [i for i, name in enumerate(ao.CHART_COORDS[model])
           if name in ("p", "p1", "p2")]
    rng = np.random.default_rng(43)
    for _ in range(50):
        z = rng.uniform(-3.0, 3.0, size=len(ao.CHART_COORDS[model]))
        g = np.zeros(z.size)
        for i in idx:
            g[i] = z[i] / params.m
        np.testing.assert_array_max_ulp(grad(z), g, maxulp=2)
        np.testing.assert_array_max_ulp(
            ham(z), float(sum(z[i] ** 2 for i in idx)) / (2.0 * params.m),
            maxulp=2)


def _cyclotron_flow(nsteps: int):
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=nsteps,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=grad)
    return z0, ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)


def test_hamiltonian_flow_records_orbit_labels():
    z0, traj = _cyclotron_flow(50)
    assert traj.coords.shape == (51, 4)
    assert traj.casimir_series.shape == (51, 4)
    assert np.array_equal(traj.casimir_series,
                          np.tile(z0.labels, (51, 1)))


def test_noncentral_rhs_equals_the_chart_poisson_tensor():
    # one rhs refreshes its one matrix in place from the chart record's
    # entries, so a later call must not see an earlier call's entries
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    rng = np.random.default_rng(47)
    ham, grad = ao.canonical_hamiltonian(params)  # nonzero dH/dj
    for _ in range(64):
        z0 = ao.orbit_point(ModelId.NONCENTRAL, rng.uniform(-1, 1, 4), params,
                            h=rng.uniform(-2, 2), f=rng.uniform(0.5, 1.5))
        spec = FlowSpec(kind="hamiltonian", hamiltonian=ham, gradient=grad)
        pi0 = ao.chart_poisson(ModelId.NONCENTRAL, z0.coords, z0.labels,
                               params)
        rhs = dynamics._rhs_factory(ModelId.NONCENTRAL, z0, spec, params,
                                    pi0)
        z1, z2 = rng.uniform(-1, 1, (2, 4))
        for z in (z1, z2, z1):
            pi = ao.chart_poisson(ModelId.NONCENTRAL, z, z0.labels, params)
            assert np.array_equal(rhs(z), pi.T.dot(grad(z)))


def test_constant_chart_rhs_leaves_its_matrix_unchanged():
    rng = np.random.default_rng(48)
    z0 = ao.orbit_point(ModelId.DOUBLE, rng.uniform(-1, 1, 4), PARAMS, h=1.3)
    spec = FlowSpec(kind="hamiltonian", hamiltonian=lambda z: np.sum(z**3))
    pi = ao.chart_poisson(ModelId.DOUBLE, z0.coords, z0.labels, PARAMS)
    kept = pi.copy()
    rhs = dynamics._rhs_factory(ModelId.DOUBLE, z0, spec, PARAMS, pi)
    grad = ao.gradient_fd(spec.hamiltonian)
    for z in rng.uniform(-1, 1, (3, 4)):
        assert np.array_equal(rhs(z), kept.T.dot(grad(z)))
    assert np.array_equal(pi, kept)


def _count_calls(monkeypatch, names):
    """Count calls of each named library function, in every namespace."""
    counts = dict.fromkeys(names, 0)
    modules = (ao, dynamics, group_models, orbit_chart)
    for name in names:
        home = group_models if hasattr(group_models, name) else orbit_chart
        real = getattr(home, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("case", ["noncentral-energy", "double-kinetic"])
def test_hamiltonian_flow_does_no_per_step_rebuilds(monkeypatch, case):
    if case == "noncentral-energy":
        model = ModelId.NONCENTRAL
        z0 = ao.orbit_point(model, (0.4, 0.7, 0.3, -0.2), PARAMS, f=1.1)
        ham, grad = ao.energy_hamiltonian(model, z0, PARAMS)
    else:
        model = ModelId.DOUBLE
        z0 = ao.orbit_point(model, (0.8, -0.4, 0.2, 0.6), PARAMS)
        ham, grad = ao.kinetic_hamiltonian(model, PARAMS)
    grad_calls = []

    def counted_grad(z):
        grad_calls.append(1)
        return grad(z)
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=200,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=counted_grad)
    counts = _count_calls(monkeypatch, ("structure_tensor", "chart_from_dual",
                                        "dual_from_chart"))
    traj = ao.hamiltonian_flow(model, spec, z0, PARAMS)
    assert len(traj.times) == 201
    assert counts["structure_tensor"] == 0
    assert counts["chart_from_dual"] == 0
    assert counts["dual_from_chart"] <= 1
    # both flows are affine: the gradient is only checked at z0, so a
    # fallback to the stepped loop (hundreds of calls) fails here
    assert len(grad_calls) <= 1


@pytest.mark.parametrize("model", CHART_MODELS, ids=lambda m: m.value)
def test_group_time_flow_makes_no_group_law_calls(monkeypatch, model):
    # the flow is the line xi0 + t ad*_H xi0; a return to the closed-form
    # coadjoint action on every sample shows up as a call here
    xi = ao.sample_dual(model, np.random.default_rng(19), nondegenerate=True)
    z0 = ao.chart_from_dual(model, xi, PARAMS)
    counts = _count_calls(monkeypatch, ("coadjoint",))
    spec = FlowSpec(kind="group-time-flow", dt=1e-3, nsteps=200)
    traj = ao.hamiltonian_flow(model, spec, z0, PARAMS)
    assert len(traj.times) == 201
    assert counts["coadjoint"] == 0


def test_group_flow_chart_calls_do_not_grow_with_nsteps(monkeypatch):
    xi = ao.dual_vector(ModelId.NONCENTRAL, j=0.4, p1=0.3, p2=-0.2, E=0.7,
                        f1=0.5, f2=-0.1, h=1.0)
    z0 = ao.chart_from_dual(ModelId.NONCENTRAL, xi, PARAMS)
    counts = _count_calls(monkeypatch, ("chart_from_dual", "dual_from_chart",
                                        "casimirs"))
    seen = []
    for nsteps in (10, 1000):
        spec = FlowSpec(kind="group-time-flow", dt=1e-3, nsteps=nsteps)
        traj = ao.hamiltonian_flow(ModelId.NONCENTRAL, spec, z0, PARAMS)
        assert traj.coords.shape == (nsteps + 1, 4)
        seen.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    assert seen[0] == seen[1]
    assert seen[0]["chart_from_dual"] == 1


# -------------------------------------------------------------- machinery

def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(dt=0.0)
    with pytest.raises(ValueError):
        FlowSpec(nsteps=0)
    with pytest.raises(ValueError):
        FlowSpec(kind="hamiltonian")
    with pytest.raises(ValueError):
        FlowSpec(integrator="euler")
    spec = FlowSpec("group-time-flow", 0.5, 3, "rk4")
    assert (spec.kind, spec.dt, spec.nsteps, spec.integrator,
            spec.hamiltonian, spec.gradient) == (
        "group-time-flow", 0.5, 3, "rk4", None, None)
    with pytest.raises(AttributeError):
        spec.dt = 0.0


@pytest.mark.parametrize("field,value", [
    ("dt", float("inf")),
    ("dt", True),
    ("nsteps", 2.5),
], ids=["dt-inf", "dt-bool", "nsteps-float"])
def test_flow_spec_rejects_bad_numbers_in_one_line(field, value):
    with pytest.raises(ValueError, match=field) as info:
        FlowSpec(**{field: value})
    assert "\n" not in str(info.value)


def test_flow_spec_rejects_a_bool_step_count():
    with pytest.raises(ValueError, match="nsteps"):
        FlowSpec(nsteps=True)


def test_invariant_drift_rejects_empty_trajectory():
    traj = ao.Trajectory(model=ModelId.CENTRAL1, times=np.array([]),
                         coords=np.zeros((0, 2)),
                         casimir_series=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ao.invariant_drift(traj)


def test_midpoint_step_solves_linear_rotation_to_cayley_form():
    # one midpoint step of dz/dt = A z equals the Cayley transform of A dt
    A = -PARAMS.omega * EPS0
    rhs = lambda z: A @ z
    dt = 0.1
    z0 = np.array([1.0, 0.25])
    out = _midpoint_step(rhs, z0, dt)
    cayley = np.linalg.solve(np.eye(2) - dt / 2 * A, (np.eye(2) + dt / 2 * A) @ z0)
    assert np.allclose(out, cayley, atol=1e-12)


def test_rk4_step_exact_on_cubic_polynomial_rhs():
    rhs = lambda z: np.array([3 * z[1] ** 0, 0.0])  # dz0/dt = 3, dz1/dt = 0
    out = _rk4_step(rhs, np.zeros(2), 0.5)
    assert np.allclose(out, [1.5, 0.0])


def test_magnetic_strength_is_m_omega_product():
    assert ModelParams(m=2.0, omega=3.0).m_omega == 6.0


def test_flow_singularity_carries_step_index_and_partial_trajectory():
    # gradient turns non-finite once p1 drifts below a trip level
    def grad(z):
        if z[0] < 0.5:
            return np.full(4, np.nan)
        return np.array([0.0, 0.0, 1.0, 0.0])

    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=0.1, nsteps=100,
                    integrator="rk4", hamiltonian=lambda z: z[..., 2],
                    gradient=grad)
    with pytest.raises(ao.FlowSingularityError) as info:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    exc = info.value
    assert exc.step > 0
    assert exc.partial is not None
    assert len(exc.partial.times) == exc.step + 1
    assert np.all(np.isfinite(exc.partial.coords))


def test_flow_rejects_foreign_initial_point():
    z0 = ao.orbit_point(ModelId.CENTRAL1, (0.1, 0.2), PARAMS)
    spec = FlowSpec(kind="group-time-flow", dt=0.1, nsteps=1)
    with pytest.raises(ao.ModelMismatchError):
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)


# ------------------------------------------------- broadcasting hamiltonians

BROADCAST_PARAMS = ModelParams(m=1.7, omega=0.6, r=1.3)
_START = {
    ModelId.CENTRAL1: ((0.4, -0.3), {"l": 0.8, "E": 0.3}),
    ModelId.CENTRAL2: ((0.3, -0.2, 0.5, 0.1), {"h": 1.2}),
    ModelId.NONCENTRAL: ((0.4, 0.7, 0.3, -0.2), {"h": 0.9, "f": 1.1}),
    ModelId.DOUBLE: ((0.8, -0.4, 0.2, 0.6), {"h": 1.4, "k": 0.7}),
}


def _named(name, model):
    coords, labels = _START[model]
    point = ao.orbit_point(model, coords, BROADCAST_PARAMS, **labels)
    return cli._named_hamiltonian(name, model, point, BROADCAST_PARAMS)[0]


@pytest.mark.parametrize("name,model", [
    *[("kinetic", m) for m in CHART_MODELS],
    *[("energy", m) for m in CHART_MODELS],
    ("canonical", ModelId.NONCENTRAL),
])
def test_named_hamiltonians_broadcast_bit_for_bit(name, model):
    ham = _named(name, model)
    rng = np.random.default_rng(61)
    zs = rng.uniform(-3.0, 3.0, size=(64, len(ao.CHART_COORDS[model])))
    stacked = ham(zs)
    assert stacked.shape == (64,)
    rows = np.array([ham(z) for z in zs])
    assert np.array_equal(stacked.view(np.uint64), rows.view(np.uint64))


@pytest.mark.parametrize("integrator", ["rk4", "implicit-midpoint"])
def test_hamiltonian_calls_do_not_grow_with_nsteps(integrator):
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return ham(z)

    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), PARAMS)
    seen = []
    for nsteps in (10, 1000):
        spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=nsteps,
                        integrator=integrator, hamiltonian=counted,
                        gradient=grad)
        traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
        assert np.array_equal(traj.hamiltonian_series, ham(traj.coords))
        seen.append(list(calls))
        calls.clear()
    assert seen == [[(11, 4)], [(1001, 4)]]


@pytest.mark.parametrize("ham", [lambda z: z, lambda z: z[2],
                                 lambda z: np.ones(3)],
                         ids=["per-coordinate", "row", "fixed-length"])
def test_hamiltonian_of_the_wrong_shape_is_rejected(ham):
    _, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.8, -0.4, 0.2, 0.6), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=1e-2, nsteps=10,
                    integrator="rk4", hamiltonian=ham, gradient=grad)
    with pytest.raises(ValueError, match=r"\(11,\)") as info:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert "\n" not in str(info.value)


def test_scalar_hamiltonian_broadcasts_to_every_sample():
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.2, 0.4, -0.1, 0.3), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=0.05, nsteps=20,
                    hamiltonian=lambda z: 2.5,
                    gradient=lambda z: np.zeros(4))
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    assert np.array_equal(traj.hamiltonian_series, np.full(21, 2.5))


def test_partial_trajectory_carries_its_energy_series():
    def grad(z):
        if z[0] < 0.5:
            return np.full(4, np.nan)
        return np.array([0.0, 0.0, 1.0, 0.0])

    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=0.1, nsteps=100,
                    integrator="rk4", hamiltonian=lambda z: 3.0 * z[..., 0],
                    gradient=grad)
    with pytest.raises(ao.FlowSingularityError) as info:
        ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    partial = info.value.partial
    assert len(partial.hamiltonian_series) == len(partial.times) > 1
    assert np.array_equal(partial.hamiltonian_series,
                          3.0 * partial.coords[:, 0])


def test_energy_hamiltonian_rejects_the_base_model():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.1, 0.2), PARAMS)
    with pytest.raises(ao.ModelMismatchError, match="base"):
        ao.energy_hamiltonian(ModelId.BASE, point, PARAMS)
