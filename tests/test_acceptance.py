"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here and match the library's
verification suite.
"""

import time

import numpy as np

import aristotle_orbits as ao
from aristotle_orbits import FlowSpec, ModelId, ModelParams
from aristotle_orbits.verify import (
    _pushforward_poisson,
    _casimir_gradients,
    _sample_point,
    run_verify,
)
from helpers import cyclotron_exact

PARAMS = ModelParams()  # m = omega = r = 1
ALL_MODELS = list(ModelId)
CHART_MODELS = [ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE]


class _Line:
    """Collects a measured defect and prints the criterion verdict."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name
        self.worst = 0.0
        self.t0 = time.perf_counter()

    def update(self, value: float) -> None:
        self.worst = max(self.worst, float(value))

    def finish(self, tolerance: float, note: str = "") -> None:
        elapsed = time.perf_counter() - self.t0
        ok = self.worst < tolerance
        extra = f"  [{note}]" if note else ""
        print(f"[criterion {self.number:2d}] {self.name}: "
              f"{'PASS' if ok else 'FAIL'} "
              f"(defect {self.worst:.3e} < {tolerance:.0e}, "
              f"{elapsed:.2f}s){extra}")
        assert ok, (f"criterion {self.number} ({self.name}): "
                    f"{self.worst:.3e} not below {tolerance:.0e}")


def test_criterion_01_algebra_validity():
    line = _Line(1, "jacobi defect of all five bracket tables")
    for model in ALL_MODELS:
        line.update(ao.jacobi_defect(ao.structure_tensor(model, PARAMS)))
    line.finish(1e-12)


def test_criterion_02_group_validity():
    line = _Line(2, "associativity, identity, inverse, two-cocycle")
    rng = np.random.default_rng(101)
    for model in ALL_MODELS:
        e = ao.identity_element(model)
        for _ in range(1000):
            g1, g2, g3 = (ao.sample_element(model, rng) for _ in range(3))
            left = ao.multiply(model, ao.multiply(model, g1, g2, PARAMS), g3,
                               PARAMS)
            right = ao.multiply(model, g1, ao.multiply(model, g2, g3, PARAMS),
                                PARAMS)
            line.update(np.max(np.abs(left - right)))
        for _ in range(200):
            g = ao.sample_element(model, rng)
            line.update(np.max(np.abs(ao.multiply(model, g, e, PARAMS) - g)))
            ginv = ao.inverse(model, g, PARAMS)
            line.update(np.max(np.abs(ao.multiply(model, g, ginv, PARAMS)
                                      - e)))
            line.update(np.max(np.abs(ao.multiply(model, ginv, g, PARAMS)
                                      - e)))
    for _ in range(1000):
        g1, g2, g3 = (ao.sample_element(ModelId.BASE, rng) for _ in range(3))
        lhs = (ao.cocycle(g1, g2, PARAMS)
               + ao.cocycle(ao.multiply(ModelId.BASE, g1, g2, PARAMS), g3,
                            PARAMS))
        rhs = (ao.cocycle(g2, g3, PARAMS)
               + ao.cocycle(g1, ao.multiply(ModelId.BASE, g2, g3, PARAMS),
                            PARAMS))
        line.update(abs(lhs - rhs))
    line.finish(1e-12)


def test_criterion_03_coadjoint_correctness():
    line = _Line(3, "closed-form coadjoint vs exponential series oracle")
    rng = np.random.default_rng(103)
    for model in ALL_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for label in ao.ALGEBRA_LABELS[model]:
            for s in (-1.0, -0.5, 0.25, 1.0):
                xi = rng.uniform(-1, 1, t.dim)
                y = ao.algebra_vector(model, **{label: s})
                series = ao.exp_coadjoint(t, y, xi, tol=1e-14)
                closed = ao.coadjoint(
                    model, ao.one_param_element(model, label, s), xi, PARAMS)
                line.update(float(np.max(np.abs(series - closed))))
    line.finish(1e-6)

    line2 = _Line(3, "coadjoint homomorphism over random pairs")
    for model in ALL_MODELS:
        n = ao.structure_tensor(model).dim
        for _ in range(200):
            g1 = ao.sample_element(model, rng)
            g2 = ao.sample_element(model, rng)
            xi = rng.uniform(-1, 1, n)
            joint = ao.coadjoint(model, ao.multiply(model, g1, g2, PARAMS),
                                 xi, PARAMS)
            split = ao.coadjoint(model, g1,
                                 ao.coadjoint(model, g2, xi, PARAMS), PARAMS)
            line2.update(float(np.max(np.abs(joint - split))))
    report = run_verify(models=[ModelId.CENTRAL1], seed=0, params=PARAMS)
    assert len(report.convention_notes) >= 8, "discrepancy log missing"
    line2.finish(1e-10, note=f"{len(report.convention_notes)} sign/factor "
                             "discrepancies logged by the verify report")


def test_criterion_04_kirillov_matrices():
    line = _Line(4, "documented 5x5 and 6x6 kirillov matrices, entrywise")
    # integer dual coordinates with the charge substitution l = h = m omega r^2
    p1, p2 = 2, -3
    xi5 = ao.dual_vector(ModelId.CENTRAL1, j=4, p1=p1, p2=p2, E=7,
                         l=PARAMS.l_sub)
    mw = PARAMS.m_omega
    expected5 = np.array([
        [0, p2, -p1, 0, 0],
        [-p2, 0, mw, 0, 0],
        [p1, -mw, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ], dtype=float)
    got5 = ao.kirillov_matrix(ao.structure_tensor(ModelId.CENTRAL1, PARAMS),
                              xi5)
    assert np.array_equal(got5, expected5)

    h = PARAMS.l_sub
    hw = h * PARAMS.omega
    xi6 = ao.dual_vector(ModelId.CENTRAL2, j=5, p1=p1, p2=p2, E=2, l=9, h=h)
    expected6 = np.array([
        [0, p2, -p1, 0, 0, 0],
        [-p2, 0, mw, 0, 0, 0],
        [p1, -mw, 0, 0, 0, 0],
        [0, 0, 0, 0, -hw, 0],
        [0, 0, 0, hw, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ], dtype=float)
    got6 = ao.kirillov_matrix(ao.structure_tensor(ModelId.CENTRAL2, PARAMS),
                              xi6)
    assert np.array_equal(got6, expected6)
    line.update(float(np.max(np.abs(got5 - expected5))))
    line.update(float(np.max(np.abs(got6 - expected6))))
    line.finish(1e-15, note="exact equality on integer inputs")


def test_criterion_05_casimir_invariance_and_kernel():
    line = _Line(5, "casimir invariance under 500 coadjoint actions per model")
    rng = np.random.default_rng(105)
    for model in CHART_MODELS:
        for _ in range(500):
            xi = ao.sample_dual(model, rng, nondegenerate=True)
            g = ao.sample_element(model, rng)
            before = np.array(ao.casimirs(model, xi, PARAMS).values)
            after = np.array(ao.casimirs(
                model, ao.coadjoint(model, g, xi, PARAMS), PARAMS).values)
            line.update(float(np.max(np.abs(after - before))))
    line.finish(1e-9)

    line2 = _Line(5, "casimir gradients inside the kirillov kernel")
    for model in CHART_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for _ in range(10):
            xi = ao.sample_dual(model, rng, nondegenerate=True)
            sv = np.linalg.svd(ao.kirillov_matrix(t, xi)
                               @ _casimir_gradients(model, xi, PARAMS),
                               compute_uv=False)
            line2.update(float(sv.max()))
    line2.finish(1e-8)


def test_criterion_06_bracket_tables():
    line = _Line(6, "chart bracket tables at 100 random points per model")
    rng = np.random.default_rng(106)
    for model in CHART_MODELS:
        for _ in range(100):
            point = _sample_point(model, rng, PARAMS, any_orbit=True)
            pi = ao.poisson_tensor(model, point, PARAMS)
            line.update(float(np.max(np.abs(
                pi - _pushforward_poisson(model, point, PARAMS)))))
    line.finish(1e-12)


def test_criterion_07_equations_of_motion():
    line = _Line(7, "exact time-flow equations of motion")
    rng = np.random.default_rng(107)

    # central1: the whole chart is frozen
    for _ in range(50):
        xi = ao.sample_dual(ModelId.CENTRAL1, rng, nondegenerate=True)
        t = float(rng.uniform(-2, 2))
        line.update(float(np.max(np.abs(
            ao.time_flow_exact(ModelId.CENTRAL1, xi, t, PARAMS) - xi))))

    # central2: dl/dt = h omega, all other coordinates frozen
    for _ in range(50):
        xi = ao.sample_dual(ModelId.CENTRAL2, rng, nondegenerate=True)
        t = float(rng.uniform(-2, 2))
        out = ao.time_flow_exact(ModelId.CENTRAL2, xi, t, PARAMS)
        expected = xi.copy()
        expected[4] += xi[5] * PARAMS.omega * t
        line.update(float(np.max(np.abs(out - expected))))

    # double: p(t) = p0 - k q0 t with q frozen
    for _ in range(50):
        xi = ao.sample_dual(ModelId.DOUBLE, rng, nondegenerate=True)
        t = float(rng.uniform(-2, 2))
        out = ao.time_flow_exact(ModelId.DOUBLE, xi, t, PARAMS)
        expected = xi.copy()
        expected[1:3] += xi[4:6] * t  # f = -k q
        line.update(float(np.max(np.abs(out - expected))))

    # noncentral: the angular sector (j, phi_f) and every casimir are
    # frozen, while dp/dt = f; full chart triviality would contradict the
    # bracket [P_i, H] = F_i (the series oracle pins the motion), so the
    # momentum motion is asserted and the claim deviation is the logged
    # convention note checked in criterion 3.
    for _ in range(50):
        xi = ao.sample_dual(ModelId.NONCENTRAL, rng, nondegenerate=True)
        t = float(rng.uniform(-2, 2))
        out = ao.time_flow_exact(ModelId.NONCENTRAL, xi, t, PARAMS)
        expected = xi.copy()
        expected[1:3] += xi[4:6] * t
        line.update(float(np.max(np.abs(out - expected))))
        before = ao.casimirs(ModelId.NONCENTRAL, xi, PARAMS)
        after = ao.casimirs(ModelId.NONCENTRAL, out, PARAMS)
        line.update(float(np.max(np.abs(np.array(after.values)
                                        - np.array(before.values)))))
        line.update(abs(out[0] - xi[0]))  # j frozen
    line.finish(1e-12, note="noncentral momentum moves as dp/dt = f per the "
                            "series oracle; angular sector frozen")


def test_criterion_08_canonicalization():
    from aristotle_orbits.orbit_chart import canonical_energy_gradient
    line = _Line(8, "canonical pair {H, tau} = 1 at 100 noncentral points")
    rng = np.random.default_rng(108)
    grad_h = canonical_energy_gradient(PARAMS)
    grad_tau = ao.gradient_fd(lambda z: z[1] / PARAMS.omega)
    for _ in range(100):
        point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
        val = ao.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_tau, point,
                                 PARAMS)
        line.update(abs(val - 1.0))
    line.finish(1e-9)


def test_criterion_09_magnetic_dynamics():
    line = _Line(9, "magnetic momentum circle, period 2 pi / omega")
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    period = 2 * np.pi / PARAMS.omega
    n = int(round(period / 1e-3))
    spec = FlowSpec(kind="hamiltonian", dt=1e-3, nsteps=n,
                    integrator="implicit-midpoint", hamiltonian=ham,
                    gradient=grad)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)
    p = traj.coords[:, :2]
    radii = np.hypot(p[:, 0], p[:, 1])
    assert np.max(np.abs(radii - radii[0])) < 1e-9  # circular in momentum
    angles = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
    rate = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
    line.update(abs(2 * np.pi / abs(rate) - period))
    line.finish(1e-6)

    line2 = _Line(9, "casimir and energy drift along the magnetic flow")
    drift = ao.invariant_drift(traj)
    for name in ("h", "k", "s", "U", "H"):
        line2.update(drift[name])
    line2.finish(1e-9)


def test_criterion_10_integrator_order():
    line = _Line(10, "rk4 error ratio within [14, 18] per step halving")
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
        errors.append(float(np.max(np.abs(
            traj.coords[-1] - np.concatenate([p_exact, q_exact])))))
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    for ratio in ratios:
        line.update(abs(ratio - 16.0))
    line.finish(2.0, note="ratios " + ", ".join(f"{r:.2f}" for r in ratios))
