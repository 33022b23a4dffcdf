import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams
from aristotle_orbits.verify import (
    _pushforward_poisson,
    _sample_point,
    printed_noncentral_omega_inverse,
)

PARAMS = ModelParams()
CHART_MODELS = [ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE]


# ---------------------------------------------------------------- casimirs

def test_central1_casimir_reduces_to_j_at_rest():
    xi = ao.dual_vector(ModelId.CENTRAL1, j=0.8, l=1.0)
    cas = ao.casimirs(ModelId.CENTRAL1, xi, PARAMS)
    assert cas.get("s") == pytest.approx(0.8)
    assert cas.get("l") == 1.0
    assert cas.get("E") == 0.0


def test_central1_casimir_known_value():
    xi = ao.dual_vector(ModelId.CENTRAL1, j=0.0, p1=1.0, p2=0.0, E=0.0, l=1.0)
    assert ao.casimirs(ModelId.CENTRAL1, xi, PARAMS).get("s") == pytest.approx(0.5)


def test_double_casimir_energy_at_origin():
    xi = ao.dual_vector(ModelId.DOUBLE, j=0.4, E=1.3, h=1.0, k=1.0)
    cas = ao.casimirs(ModelId.DOUBLE, xi, PARAMS)
    assert cas.get("U") == pytest.approx(1.3)
    assert cas.get("s") == pytest.approx(0.4)


def test_noncentral_casimirs_documented_forms():
    xi = ao.dual_vector(ModelId.NONCENTRAL, j=0.1, p1=0.6, p2=-0.2, E=0.9,
                        f1=0.3, f2=0.4, h=PARAMS.l_sub)
    cas = ao.casimirs(ModelId.NONCENTRAL, xi, PARAMS)
    assert cas.get("f") == pytest.approx(0.5)
    # U = E + (p x f) / (m omega) when h = m omega r^2
    assert cas.get("U") == pytest.approx(0.9 + (0.6 * 0.4 - (-0.2) * 0.3))


@pytest.mark.parametrize("model", CHART_MODELS)
def test_casimir_invariance_under_random_coadjoint(model):
    rng = np.random.default_rng(21)
    for _ in range(500):
        xi = ao.sample_dual(model, rng, nondegenerate=True)
        g = ao.sample_element(model, rng)
        before = np.array(ao.casimirs(model, xi, PARAMS).values)
        after = np.array(
            ao.casimirs(model, ao.coadjoint(model, g, xi, PARAMS), PARAMS).values)
        assert np.max(np.abs(after - before)) < 1e-9


@pytest.mark.parametrize("model,name", [
    (ModelId.CENTRAL1, "l"),
    (ModelId.CENTRAL2, "h"),
    (ModelId.NONCENTRAL, "f"),
    (ModelId.DOUBLE, "k"),
])
def test_casimirs_raise_on_degenerate_charge(model, name):
    xi = np.zeros(len(ao.DUAL_LABELS[model]))
    labels = ao.DUAL_LABELS[model]
    # keep the other required charges alive
    for other in ("l", "h", "k"):
        if other in labels and other != name:
            xi[labels.index(other)] = 1.0
    if name != "f" and "f1" in labels:
        xi[labels.index("f1")] = 1.0
    with pytest.raises(ao.ChartDegeneracyError):
        ao.casimirs(model, xi, PARAMS)


def test_casimir_gradients_lie_in_kirillov_kernel():
    from aristotle_orbits.verify import _casimir_gradients
    rng = np.random.default_rng(23)
    for model in CHART_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for _ in range(5):
            xi = ao.sample_dual(model, rng, nondegenerate=True)
            k = ao.kirillov_matrix(t, xi)
            grads = _casimir_gradients(model, xi, PARAMS)
            sv = np.linalg.svd(k @ grads, compute_uv=False)
            assert sv.max() < 1e-8


# ------------------------------------------------------------------ charts

def test_chart_from_dual_central1_example():
    xi = ao.dual_vector(ModelId.CENTRAL1, p1=2.0, p2=-3.0, l=1.0)
    point = ao.chart_from_dual(ModelId.CENTRAL1, xi, PARAMS)
    assert point.coords == pytest.approx((2.0, 3.0))


def test_chart_from_dual_double_zero_force():
    xi = ao.dual_vector(ModelId.DOUBLE, p1=0.3, p2=0.1, h=1.0, k=1.0)
    point = ao.chart_from_dual(ModelId.DOUBLE, xi, PARAMS)
    assert point.coords[2:] == pytest.approx((0.0, 0.0))


def test_chart_from_dual_noncentral_polar_angle():
    xi = ao.dual_vector(ModelId.NONCENTRAL, f2=2.0, h=1.0)
    point = ao.chart_from_dual(ModelId.NONCENTRAL, xi, PARAMS)
    assert point.coord("phi_f") == pytest.approx(np.pi / 2)
    assert point.casimirs.get("f") == pytest.approx(2.0)


@pytest.mark.parametrize("model", CHART_MODELS)
def test_chart_round_trip_is_exact(model):
    rng = np.random.default_rng(25)
    for _ in range(50):
        xi = ao.sample_dual(model, rng, nondegenerate=True)
        point = ao.chart_from_dual(model, xi, PARAMS)
        back = ao.dual_from_chart(point, PARAMS)
        assert np.max(np.abs(back - xi)) < 1e-12


def test_orbit_point_rejects_wrong_arity_and_unknown_labels():
    with pytest.raises(ao.ChartDegeneracyError):
        ao.orbit_point(ModelId.CENTRAL1, (1.0,), PARAMS)
    with pytest.raises(ao.ChartDegeneracyError):
        ao.orbit_point(ModelId.CENTRAL1, (1.0, 2.0), PARAMS, bogus=1.0)


# -------------------------------------------------------- restricted forms

def test_omega_central1_documented_block():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.4, -1.2), PARAMS)
    assert np.array_equal(ao.omega_matrix(ModelId.CENTRAL1, point, PARAMS),
                          np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_omega_double_documented_matrix():
    point = ao.orbit_point(ModelId.DOUBLE, (0.1, 0.2, 0.3, 0.4), PARAMS)
    expected = np.array([
        [0.0, 1.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    assert np.array_equal(ao.omega_matrix(ModelId.DOUBLE, point, PARAMS),
                          expected)


def test_omega_central2_documented_blocks():
    point = ao.orbit_point(ModelId.CENTRAL2, (0.1, 0.2, 0.3, 0.4), PARAMS)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    assert np.array_equal(ao.omega_matrix(ModelId.CENTRAL2, point, PARAMS),
                          expected)


def test_noncentral_omega_inverts_documented_inverse():
    rng = np.random.default_rng(27)
    for _ in range(20):
        point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
        if abs(np.sin(point.coord("phi_f"))) < 1e-3:
            continue
        om = ao.omega_matrix(ModelId.NONCENTRAL, point, PARAMS)
        prod = om @ printed_noncentral_omega_inverse(point, PARAMS)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_noncentral_omega_singular_at_aligned_force():
    point = ao.orbit_point(ModelId.NONCENTRAL, (0.1, 0.0, 0.5, 0.5), PARAMS)
    with pytest.raises(ao.SingularityError):
        ao.omega_matrix(ModelId.NONCENTRAL, point, PARAMS)


# -------------------------------------------------------- poisson brackets

@pytest.mark.parametrize("model", CHART_MODELS)
def test_poisson_tensor_reproduces_bracket_tables(model):
    rng = np.random.default_rng(29)
    for _ in range(100):
        point = _sample_point(model, rng, PARAMS, any_orbit=True)
        pi = ao.poisson_tensor(model, point, PARAMS)
        assert np.max(np.abs(pi - _pushforward_poisson(model, point,
                                                       PARAMS))) < 1e-12


@pytest.mark.parametrize("model", CHART_MODELS)
def test_poisson_tensor_matches_pushforward_off_default_orbit(model):
    # charge 5 and Hooke constant 7 where m omega r^2 = 6: the default-orbit
    # tables ({p, q} = 1, {p1, p2} = -m omega) are off here by 1/6 and 1
    params = ModelParams(m=2.0, omega=3.0)
    labels = {ModelId.CENTRAL1: {"l": 5.0}, ModelId.CENTRAL2: {"h": 5.0},
              ModelId.NONCENTRAL: {"h": 5.0, "f": 1.2},
              ModelId.DOUBLE: {"h": 5.0, "k": 7.0}}[model]
    coords = (0.3, -0.4, 0.7, 0.2)[:len(ao.CHART_COORDS[model])]
    point = ao.orbit_point(model, coords, params, **labels)
    pi = ao.poisson_tensor(model, point, params)
    assert np.max(np.abs(pi - _pushforward_poisson(model, point,
                                                   params))) < 1e-12
    if model is ModelId.DOUBLE:
        assert pi[0, 1] == pytest.approx(-5.0)          # {p1, p2} = -h / r^2
    else:
        i_p = ao.CHART_COORDS[model].index("p")
        assert pi[i_p, i_p + 1] == pytest.approx(5.0 / 6.0)  # {p, q}


def test_poisson_tensor_rejects_a_foreign_point():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.1, 0.2), PARAMS)
    with pytest.raises(ao.ModelMismatchError):
        ao.poisson_tensor(ModelId.DOUBLE, point, PARAMS)


@pytest.mark.parametrize("model", CHART_MODELS)
def test_poisson_tensor_inverts_chart_form(model):
    rng = np.random.default_rng(31)
    for _ in range(10):
        point = _sample_point(model, rng, PARAMS)
        pi = ao.poisson_tensor(model, point, PARAMS)
        om = ao.omega_chart(model, point, PARAMS)
        assert np.max(np.abs(pi @ om - np.eye(pi.shape[0]))) < 1e-10


def test_poisson_bracket_antisymmetry_on_same_function():
    rng = np.random.default_rng(33)
    point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
    grad = ao.gradient_fd(lambda z: z[0] * z[2] - np.sin(z[3]))
    val = ao.poisson_bracket(ModelId.NONCENTRAL, grad, grad, point, PARAMS)
    assert abs(val) < 1e-12


def test_double_bracket_values():
    point = ao.orbit_point(ModelId.DOUBLE, (0.3, -0.7, 0.2, 0.9), PARAMS)
    g = lambda name: ao.coordinate_gradient(ModelId.DOUBLE, name)
    br = lambda a, b: ao.poisson_bracket(ModelId.DOUBLE, g(a), g(b), point,
                                         PARAMS)
    mw = PARAMS.m_omega
    assert br("p1", "p2") == pytest.approx(-mw)
    assert br("p1", "q1") == pytest.approx(1.0)
    assert br("p2", "q2") == pytest.approx(1.0)
    assert br("p1", "q2") == 0.0
    assert br("q1", "q2") == 0.0


def test_noncentral_bracket_values():
    point = ao.orbit_point(ModelId.NONCENTRAL, (0.4, 0.8, -0.3, 0.6), PARAMS,
                           f=1.3)
    g = lambda name: ao.coordinate_gradient(ModelId.NONCENTRAL, name)
    br = lambda a, b: ao.poisson_bracket(ModelId.NONCENTRAL, g(a), g(b),
                                         point, PARAMS)
    mw = PARAMS.m_omega
    p, q = point.coord("p"), point.coord("q")
    assert br("j", "p") == pytest.approx(mw * q)
    assert br("phi_f", "q") == 0.0
    assert br("j", "phi_f") == pytest.approx(1.0)
    assert br("p", "q") == pytest.approx(1.0)
    assert br("j", "q") == pytest.approx(-p / mw)
    assert br("phi_f", "p") == 0.0


def test_central_models_bracket_values():
    p1 = ao.orbit_point(ModelId.CENTRAL1, (0.2, 0.5), PARAMS)
    g1 = lambda n: ao.coordinate_gradient(ModelId.CENTRAL1, n)
    assert ao.poisson_bracket(ModelId.CENTRAL1, g1("p"), g1("q"), p1,
                              PARAMS) == pytest.approx(1.0)
    p2 = ao.orbit_point(ModelId.CENTRAL2, (0.2, 0.5, 0.1, -0.4), PARAMS)
    g2 = lambda n: ao.coordinate_gradient(ModelId.CENTRAL2, n)
    assert ao.poisson_bracket(ModelId.CENTRAL2, g2("p"), g2("q"), p2,
                              PARAMS) == pytest.approx(1.0)
    assert ao.poisson_bracket(ModelId.CENTRAL2, g2("l"), g2("alpha"), p2,
                              PARAMS) == pytest.approx(1.0)


@pytest.mark.parametrize("model", CHART_MODELS)
def test_chart_bracket_jacobi_identity(model):
    # cyclic sum over coordinate triples, outer gradient by differences
    rng = np.random.default_rng(35)
    names = ao.CHART_COORDS[model]
    for _ in range(50):
        point = _sample_point(model, rng, PARAMS)
        a, b, c = rng.choice(len(names), size=3, replace=len(names) < 3)
        ga, gb, gc = (ao.coordinate_gradient(model, names[i])
                      for i in (a, b, c))

        def nested(g1, g2, g3):
            inner = lambda z: ao.poisson_bracket(
                model, g2, g3, point.replace_coords(z), PARAMS)
            return ao.poisson_bracket(model, g1, ao.gradient_fd(inner),
                                      point, PARAMS)

        total = (nested(ga, gb, gc) + nested(gb, gc, ga)
                 + nested(gc, ga, gb))
        assert abs(total) < 1e-5


def test_phase_space_blocks_double_magnetic_structure():
    point = ao.orbit_point(ModelId.DOUBLE, (0.3, -0.7, 0.2, 0.9), PARAMS)
    blocks = ao.phase_space_blocks(ModelId.DOUBLE, point, PARAMS)
    mw = PARAMS.m_omega
    assert np.array_equal(blocks["momentum_momentum"],
                          [[0.0, -mw], [mw, 0.0]])
    assert np.array_equal(blocks["position_position"], np.zeros((2, 2)))
    assert np.array_equal(blocks["position_momentum"], -np.eye(2))


def test_phase_space_blocks_central1_canonical():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.3, -0.7), PARAMS)
    blocks = ao.phase_space_blocks(ModelId.CENTRAL1, point, PARAMS)
    assert blocks["momentum_momentum"] == pytest.approx(np.zeros((1, 1)))
    assert blocks["position_position"] == pytest.approx(np.zeros((1, 1)))
    assert blocks["position_momentum"][0, 0] == pytest.approx(-1.0)


def test_phase_space_blocks_rejects_unsplit_charts():
    point = ao.orbit_point(ModelId.NONCENTRAL, (0.1, 0.4, 0.2, 0.3), PARAMS)
    with pytest.raises(ao.ModelMismatchError):
        ao.phase_space_blocks(ModelId.NONCENTRAL, point, PARAMS)


# ----------------------------------------------------------- canonical map

def test_canonicalize_noncentral_values():
    point = ao.orbit_point(ModelId.NONCENTRAL, (0.0, 0.6, 0.0, 0.0), PARAMS)
    out = ao.canonicalize_noncentral(point, PARAMS)
    assert out[0] == pytest.approx(0.0)  # energy = j omega at rest
    point2 = ao.orbit_point(ModelId.NONCENTRAL, (1.0, 0.6, 1.0, 1.0), PARAMS)
    out2 = ao.canonicalize_noncentral(point2, PARAMS)
    assert out2[0] == pytest.approx(2.0)
    assert out2[1] == pytest.approx(0.6)


def test_canonical_pair_bracket_is_one():
    from aristotle_orbits.orbit_chart import canonical_energy_gradient
    rng = np.random.default_rng(37)
    grad_h = canonical_energy_gradient(PARAMS)
    grad_tau = ao.gradient_fd(lambda z: z[1] / PARAMS.omega)
    for _ in range(100):
        point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
        val = ao.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_tau, point,
                                 PARAMS)
        assert abs(val - 1.0) < 1e-9


def test_canonical_chart_kills_other_brackets():
    rng = np.random.default_rng(39)
    from aristotle_orbits.orbit_chart import canonical_energy_gradient
    grad_h = canonical_energy_gradient(PARAMS)
    for name in ("p", "q"):
        grad_c = ao.coordinate_gradient(ModelId.NONCENTRAL, name)
        for _ in range(20):
            point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
            val = ao.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_c,
                                     point, PARAMS)
            assert abs(val) < 1e-9


def test_canonicalize_rejects_other_models():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.1, 0.2), PARAMS)
    with pytest.raises(ao.ModelMismatchError):
        ao.canonicalize_noncentral(point, PARAMS)
