import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams, dynamics, orbit_chart
from aristotle_orbits.verify import (
    Report,
    _pushforward_poisson,
    _sample_point,
    check_bracket_tables,
    printed_noncentral_omega_inverse,
)

PARAMS = ModelParams()
CHART_MODELS = [ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE]


# ---------------------------------------------------------------- casimirs

def test_central1_casimir_reduces_to_j_at_rest():
    xi = ao.dual_vector(ModelId.CENTRAL1, j=0.8, l=1.0)
    l, E, s = ao.casimirs(ModelId.CENTRAL1, xi, PARAMS)
    assert s == pytest.approx(0.8)
    assert l == 1.0
    assert E == 0.0


def test_central1_casimir_known_value():
    xi = ao.dual_vector(ModelId.CENTRAL1, j=0.0, p1=1.0, p2=0.0, E=0.0, l=1.0)
    _, _, s = ao.casimirs(ModelId.CENTRAL1, xi, PARAMS)
    assert s == pytest.approx(0.5)


def test_double_casimir_energy_at_origin():
    xi = ao.dual_vector(ModelId.DOUBLE, j=0.4, E=1.3, h=1.0, k=1.0)
    _, _, s, U = ao.casimirs(ModelId.DOUBLE, xi, PARAMS)
    assert U == pytest.approx(1.3)
    assert s == pytest.approx(0.4)


def test_noncentral_casimirs_documented_forms():
    xi = ao.dual_vector(ModelId.NONCENTRAL, j=0.1, p1=0.6, p2=-0.2, E=0.9,
                        f1=0.3, f2=0.4, h=PARAMS.l_sub)
    _, f, U = ao.casimirs(ModelId.NONCENTRAL, xi, PARAMS)
    assert f == pytest.approx(0.5)
    # U = E + (p x f) / (m omega) when h = m omega r^2
    assert U == pytest.approx(0.9 + (0.6 * 0.4 - (-0.2) * 0.3))


@pytest.mark.parametrize("model", CHART_MODELS)
def test_casimir_invariance_under_random_coadjoint(model):
    rng = np.random.default_rng(21)
    for _ in range(500):
        xi = ao.sample_dual(model, rng, nondegenerate=True)
        g = ao.sample_element(model, rng)
        before = ao.casimirs(model, xi, PARAMS)
        after = ao.casimirs(model, ao.coadjoint(model, g, xi, PARAMS), PARAMS)
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
    _, phi_f, _, _ = point.coords
    _, f, _ = point.labels
    assert phi_f == pytest.approx(np.pi / 2)
    assert f == pytest.approx(2.0)


@pytest.mark.parametrize("model", CHART_MODELS)
def test_chart_round_trip_is_exact(model):
    rng = np.random.default_rng(25)
    for _ in range(50):
        xi = ao.sample_dual(model, rng, nondegenerate=True)
        point = ao.chart_from_dual(model, xi, PARAMS)
        back = ao.dual_from_chart(point, PARAMS)
        assert np.max(np.abs(back - xi)) < 1e-12


def test_dual_from_chart_overflow_is_a_singularity_without_a_warning():
    # -m omega q overflows; the suite's error::RuntimeWarning filter turns a
    # leaked numpy warning into a failure before casimirs can raise
    point = ao.OrbitPoint(ModelId.CENTRAL1, np.array([0.1, 1e10]),
                          np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ao.SingularityError):
        ao.dual_from_chart(point, ModelParams(m=1e300, omega=10.0))


def test_orbit_point_rejects_wrong_arity_and_unknown_labels():
    with pytest.raises(ao.ChartDegeneracyError):
        ao.orbit_point(ModelId.CENTRAL1, (1.0,), PARAMS)
    with pytest.raises(ao.ChartDegeneracyError):
        ao.orbit_point(ModelId.CENTRAL1, (1.0, 2.0), PARAMS, bogus=1.0)
    # central2 fixes E through alpha and the noncentral chart has j as a
    # coordinate, so neither is a label there
    with pytest.raises(ao.ChartDegeneracyError):
        ao.orbit_point(ModelId.CENTRAL2, (0.1, 0.2, 0.3, 0.4), PARAMS, E=5.0)
    with pytest.raises(ao.ChartDegeneracyError):
        ao.orbit_point(ModelId.NONCENTRAL, (0.1, 0.2, 0.3, 0.4), PARAMS, j=1.0)


@pytest.mark.parametrize("model, keys", [
    (ModelId.CENTRAL1, ("l", "E", "j")),
    (ModelId.CENTRAL2, ("h", "j")),
    (ModelId.NONCENTRAL, ("h", "f", "E")),
    (ModelId.DOUBLE, ("h", "k", "j", "E")),
])
def test_orbit_point_takes_the_label_keywords_of_its_chart(model, keys):
    coords = np.full(len(ao.CHART_COORDS[model]), 0.3)
    for key in keys:
        point = ao.orbit_point(model, coords, PARAMS, **{key: 0.7})
        # a charge is stored as its label, a hidden j or E as its dual slot
        if key in ao.CASIMIR_NAMES[model]:
            value = point.labels[ao.CASIMIR_NAMES[model].index(key)]
        else:
            value = ao.dual_from_chart(point, PARAMS)[
                ao.DUAL_LABELS[model].index(key)]
        assert value == pytest.approx(0.7, rel=0.0, abs=1e-15), key
    with pytest.raises(ao.ChartDegeneracyError) as info:
        ao.orbit_point(model, coords, PARAMS, bogus=1.0)
    assert str(info.value) == (f"{model.value} orbit labels are "
                               f"{', '.join(keys)}; got ['bogus']")


@pytest.mark.parametrize("f", [0.0, -1.0])
def test_orbit_point_rejects_a_non_positive_force_magnitude(f):
    with pytest.raises(ao.ChartDegeneracyError, match="positive") as info:
        ao.orbit_point(ModelId.NONCENTRAL, (0.1, 0.5, 0.2, 0.3), PARAMS, f=f)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("model", CHART_MODELS)
def test_stacked_chart_maps_match_row_by_row(model):
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    rng = np.random.default_rng(26)
    xis = np.array([ao.sample_dual(model, rng, nondegenerate=True)
                    for _ in range(64)])
    cas = ao.casimirs(model, xis, params)
    points = ao.chart_from_dual(model, xis, params)
    back = ao.dual_from_chart(points, params)
    d = len(ao.CHART_COORDS[model])
    c = len(ao.CASIMIR_NAMES[model])
    assert cas.shape == points.labels.shape == (64, c)
    assert points.coords.shape == (64, d)
    assert back.shape == xis.shape
    zs = rng.uniform(-1.0, 1.0, size=(64, d))
    stacked = ao.orbit_point(model, zs, params)
    stacked_back = ao.dual_from_chart(stacked, params)
    for i, xi in enumerate(xis):
        row = ao.chart_from_dual(model, xi, params)
        assert np.array_equal(ao.casimirs(model, xi, params), cas[i])
        assert np.array_equal(row.coords, points.coords[i])
        assert np.array_equal(row.labels, points.labels[i])
        assert np.array_equal(ao.dual_from_chart(row, params), back[i])
        single = ao.orbit_point(model, zs[i], params)
        assert np.array_equal(single.labels, stacked.labels[i])
        assert np.array_equal(ao.dual_from_chart(single, params),
                              stacked_back[i])


#: Chart-layer calls on an empty batch, and the trailing axes of their
#: result, from the dual length n, chart length d and label count c.
EMPTY_BATCH_CALLS = {
    "casimirs": (lambda m, xi, pt: ao.casimirs(m, xi, PARAMS),
                 lambda n, d, c: (c,)),
    "chart_from_dual": (lambda m, xi, pt: ao.chart_from_dual(m, xi,
                                                             PARAMS).coords,
                        lambda n, d, c: (d,)),
    "orbit_point": (lambda m, xi, pt: ao.orbit_point(m, pt.coords,
                                                     PARAMS).labels,
                    lambda n, d, c: (c,)),
    "dual_from_chart": (lambda m, xi, pt: ao.dual_from_chart(pt, PARAMS),
                        lambda n, d, c: (n,)),
    "chart_jacobian": (lambda m, xi, pt: orbit_chart.chart_jacobian(
        m, xi, PARAMS), lambda n, d, c: (d, n)),
    "omega_matrix": (lambda m, xi, pt: ao.omega_matrix(m, pt, PARAMS),
                     lambda n, d, c: (d, d)),
    "omega_chart": (lambda m, xi, pt: ao.omega_chart(m, pt, PARAMS),
                    lambda n, d, c: (d, d)),
}


@pytest.mark.parametrize("name", EMPTY_BATCH_CALLS)
@pytest.mark.parametrize("model", CHART_MODELS, ids=lambda m: m.value)
def test_an_empty_batch_gives_an_empty_result(model, name):
    # the degeneracy checks reduce with a minimum, which has no identity
    n = len(ao.DUAL_LABELS[model])
    d = len(ao.CHART_COORDS[model])
    c = len(ao.CASIMIR_NAMES[model])
    point = ao.OrbitPoint(model, np.zeros((0, d)), np.zeros((0, c)))
    call, trailing = EMPTY_BATCH_CALLS[name]
    out = call(model, np.zeros((0, n)), point)
    assert out.shape == (0, *trailing(n, d, c))


def test_orbit_point_stores_given_labels_and_hidden_coordinates():
    # f is stored as given, not recomputed as |f (cos, sin)|
    phis = np.linspace(-np.pi, np.pi, 2001)
    zs = np.column_stack((np.zeros_like(phis), phis, np.zeros_like(phis),
                          np.zeros_like(phis)))
    point = ao.orbit_point(ModelId.NONCENTRAL, zs, PARAMS, f=1.0, h=0.7)
    assert np.all(point.labels[:, 0] == 0.7)
    assert np.all(point.labels[:, 1] == 1.0)
    # the hidden j and E come back from the labels s and U
    point = ao.orbit_point(ModelId.DOUBLE, (0.3, -0.2, 0.5, 0.1), PARAMS,
                           h=1.5, k=-2.0, j=0.25, E=-0.75)
    h, k, _, _ = point.labels
    assert (h, k) == (1.5, -2.0)
    xi = ao.dual_from_chart(point, PARAMS)
    assert xi[0] == pytest.approx(0.25, abs=1e-15)
    assert xi[3] == pytest.approx(-0.75, abs=1e-15)
    point = ao.orbit_point(ModelId.CENTRAL2, (0.1, 0.2, 0.3, 0.4), PARAMS,
                           j=0.5)
    assert ao.dual_from_chart(point, PARAMS)[0] == pytest.approx(0.5)


@pytest.mark.parametrize("call", [
    lambda: ao.chart_from_dual(ModelId.CENTRAL1, [np.nan, 0, 0, 0, 1], PARAMS),
    lambda: ao.chart_from_dual(
        ModelId.DOUBLE, [[0, 1, 0, 0, 0.5, 0, 1, 1],
                         [0, 1, 0, 0, np.inf, 0, 1, 1]], PARAMS),
    lambda: ao.orbit_point(ModelId.CENTRAL1, [np.nan, 0.0], PARAMS),
    lambda: ao.orbit_point(ModelId.NONCENTRAL, [0.0, np.inf, 0.0, 0.0],
                           PARAMS),
    lambda: ao.orbit_point(ModelId.DOUBLE, [0.0, 0.0, 0.0, 0.0], PARAMS,
                           k=-np.inf),
], ids=["xi-nan", "xi-stack-inf", "coord-nan", "angle-inf", "label-inf"])
def test_chart_maps_reject_non_finite_input(call):
    with pytest.raises(ao.ChartDegeneracyError) as info:
        call()
    assert "finite" in str(info.value) and "\n" not in str(info.value)


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
        if abs(np.sin(point.coords[1])) < 1e-3:  # phi_f
            continue
        om = ao.omega_matrix(ModelId.NONCENTRAL, point, PARAMS)
        prod = om @ printed_noncentral_omega_inverse(point, PARAMS)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_noncentral_omega_singular_at_aligned_force():
    point = ao.orbit_point(ModelId.NONCENTRAL, (0.1, 0.0, 0.5, 0.5), PARAMS)
    with pytest.raises(ao.SingularityError):
        ao.omega_matrix(ModelId.NONCENTRAL, point, PARAMS)


def test_int_scales_beyond_the_float_product_fail_as_the_float_scales():
    # m * omega of two Python ints is an int beyond the float range, which
    # raised a bare OverflowError where the float scales raise this
    z = (0.1, 0.2, 0.3, 0.4)
    messages = []
    for scale in (10**200, 1e200):
        with pytest.raises(ao.SingularityError) as info:
            ao.orbit_point(ModelId.DOUBLE, z,
                           ModelParams(m=scale, omega=scale))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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


def test_inverts_chart_form_row_fails_on_a_wrong_tensor(monkeypatch):
    # omega_chart is the inverse of poisson_tensor, so the row pulls it back
    # to the restricted form, which does not go through chart_poisson
    real = ao.chart_poisson

    def scaled(model, z, labels, params=PARAMS):
        pi = real(model, z, labels, params).copy()
        pi[..., 0, 1] *= 1.001
        pi[..., 1, 0] *= 1.001
        return pi

    monkeypatch.setattr(orbit_chart, "chart_poisson", scaled)
    report = Report(seed=0)
    check_bracket_tables(report, PARAMS, CHART_MODELS,
                         np.random.default_rng(0))
    rows = [c for c in report.checks if "inverts chart form" in c.name]
    assert len(rows) == 4
    assert all(c.status == "fail" and c.measured > 1e-4 for c in rows)


def test_poisson_bracket_antisymmetry_on_same_function():
    rng = np.random.default_rng(33)
    point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
    grad = ao.gradient_fd(lambda z: z[0] * z[2] - np.sin(z[3]))
    val = ao.poisson_bracket(ModelId.NONCENTRAL, grad, grad, point, PARAMS)
    assert abs(val) < 1e-12


def test_coordinate_gradient_rejects_an_unknown_name_with_the_choices():
    with pytest.raises(ao.ChartDegeneracyError) as info:
        ao.coordinate_gradient(ModelId.DOUBLE, "zz")
    assert str(info.value) == ("'zz' is not a chart coordinate of double; "
                               "choose from ('p1', 'p2', 'q1', 'q2')")


def test_coordinate_gradient_of_a_model_without_a_chart_is_a_mismatch():
    with pytest.raises(ao.ModelMismatchError,
                       match="base has no orbit chart; choose one of "
                             "central1, central2, noncentral, double"):
        ao.coordinate_gradient(ModelId.BASE, "p")


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
    _, _, p, q = point.coords
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
                model, g2, g3, ao.OrbitPoint(model, z, point.labels), PARAMS)
            return ao.poisson_bracket(model, g1, ao.gradient_fd(inner),
                                      point, PARAMS)

        total = (nested(ga, gb, gc) + nested(gb, gc, ga)
                 + nested(gc, ga, gb))
        assert abs(total) < 1e-5


def test_phase_space_blocks_double_magnetic_structure():
    # the double chart (p1, p2, q1, q2): momentum block first, then position
    point = ao.orbit_point(ModelId.DOUBLE, (0.3, -0.7, 0.2, 0.9), PARAMS)
    pi = ao.poisson_tensor(ModelId.DOUBLE, point, PARAMS)
    mw = PARAMS.m_omega
    assert np.array_equal(pi[:2, :2], [[0.0, -mw], [mw, 0.0]])
    assert np.array_equal(pi[2:, 2:], np.zeros((2, 2)))
    assert np.array_equal(pi[2:, :2], -np.eye(2))
    # off the default orbits the field is B = h / r**2:
    # {p_i, p_j} = -B eps_ij, {q^i, q^j} = 0 and {p_i, q^j} = delta_i^j
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    points = _sample_point(ModelId.DOUBLE, np.random.default_rng(47), params,
                           any_orbit=True, size=32)
    h, k = points.labels[:, 0], points.labels[:, 1]
    assert (h < 0).any() and (h > 0).any() and (k != 1.0).all()
    field = h / params.r**2
    pi = ao.poisson_tensor(ModelId.DOUBLE, points, params)
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(pi[:, :2, :2], -field[:, None, None] * eps)
    assert np.array_equal(pi[:, 2:, 2:], np.zeros((32, 2, 2)))
    assert np.array_equal(pi[:, :2, 2:], np.broadcast_to(np.eye(2),
                                                         (32, 2, 2)))
    # minimal coupling pi_1 = p1 - (B / 2) q2, pi_2 = p2 + (B / 2) q1 makes
    # the chart canonical: its Jacobian carries the tensor to [[0, I], [-I, 0]]
    jac = np.broadcast_to(np.eye(4), (32, 4, 4)).copy()
    jac[:, 0, 3] = -field / 2.0
    jac[:, 1, 2] = field / 2.0
    canonical = np.block([[np.zeros((2, 2)), np.eye(2)],
                          [-np.eye(2), np.zeros((2, 2))]])
    error = np.abs(jac @ pi @ jac.transpose(0, 2, 1) - canonical)
    assert (error <= 1e-15 * (1.0 + np.abs(field))[:, None, None]).all()


def test_phase_space_blocks_central1_canonical():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.3, -0.7), PARAMS)
    pi = ao.poisson_tensor(ModelId.CENTRAL1, point, PARAMS)
    assert pi[:1, :1] == pytest.approx(np.zeros((1, 1)))
    assert pi[1:, 1:] == pytest.approx(np.zeros((1, 1)))
    assert pi[1, 0] == pytest.approx(-1.0)


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
    rng = np.random.default_rng(37)
    grad_h = dynamics.canonical_hamiltonian(PARAMS)[1]
    grad_tau = ao.gradient_fd(lambda z: z[1] / PARAMS.omega)
    for _ in range(100):
        point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
        val = ao.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_tau, point,
                                 PARAMS)
        assert abs(val - 1.0) < 1e-9


def test_canonical_chart_kills_other_brackets():
    rng = np.random.default_rng(39)
    grad_h = dynamics.canonical_hamiltonian(PARAMS)[1]
    for name in ("p", "q"):
        grad_c = ao.coordinate_gradient(ModelId.NONCENTRAL, name)
        for _ in range(20):
            point = _sample_point(ModelId.NONCENTRAL, rng, PARAMS)
            val = ao.poisson_bracket(ModelId.NONCENTRAL, grad_h, grad_c,
                                     point, PARAMS)
            assert abs(val) < 1e-9


def test_gradients_of_a_stack_equal_row_by_row():
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    zs = np.random.default_rng(45).uniform(-1.0, 1.0, size=(64, 4))
    grads = (dynamics.canonical_hamiltonian(params)[1],
             ao.gradient_fd(lambda z: z[..., 0] * np.sin(z[..., 1])
                            + z[..., 2] ** 2 * z[..., 3]))
    for grad in grads:
        stacked = grad(zs)
        assert stacked.shape == (64, 4)
        for i in range(64):
            assert np.array_equal(stacked[i], grad(zs[i]))


def test_canonicalize_rejects_other_models():
    point = ao.orbit_point(ModelId.CENTRAL1, (0.1, 0.2), PARAMS)
    with pytest.raises(ao.ModelMismatchError):
        ao.canonicalize_noncentral(point, PARAMS)


@pytest.mark.parametrize("model", CHART_MODELS)
def test_stacked_chart_layer_matches_row_by_row(model):
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    rng = np.random.default_rng(41)
    points = _sample_point(model, rng, params, any_orbit=True, size=64)
    xis = ao.dual_from_chart(points, params)
    tensor = ao.structure_tensor(model, params)
    d = len(ao.CHART_COORDS[model])
    grad = ao.coordinate_gradient(model, ao.CHART_COORDS[model][-1])
    stacked = {
        "kirillov_matrix": ao.kirillov_matrix(tensor, xis),
        "chart_jacobian": orbit_chart.chart_jacobian(model, xis, params),
        "chart_poisson": ao.chart_poisson(model, points.coords,
                                          points.labels, params),
        "poisson_tensor": ao.poisson_tensor(model, points, params),
        "omega_matrix": ao.omega_matrix(model, points, params),
        "omega_chart": ao.omega_chart(model, points, params),
        "_pushforward_poisson": _pushforward_poisson(model, points, params),
        "poisson_bracket": ao.poisson_bracket(model, ao.gradient_fd(
            lambda z: z[..., 0] * z[..., 1]), grad, points, params),
    }
    assert stacked["chart_jacobian"].shape == (64, d, tensor.dim)
    assert stacked["poisson_tensor"].shape == (64, d, d)
    assert stacked["poisson_bracket"].shape == (64,)
    for i in range(64):
        point = ao.OrbitPoint(model, points.coords[i], points.labels[i])
        xi = ao.dual_from_chart(point, params)
        rows = {
            "kirillov_matrix": ao.kirillov_matrix(tensor, xi),
            "chart_jacobian": orbit_chart.chart_jacobian(model, xi, params),
            "chart_poisson": ao.chart_poisson(model, point.coords,
                                              point.labels, params),
            "poisson_tensor": ao.poisson_tensor(model, point, params),
            "omega_matrix": ao.omega_matrix(model, point, params),
            "omega_chart": ao.omega_chart(model, point, params),
            "_pushforward_poisson": _pushforward_poisson(model, point,
                                                         params),
            "poisson_bracket": ao.poisson_bracket(model, ao.gradient_fd(
                lambda z: z[..., 0] * z[..., 1]), grad, point, params),
        }
        for name, row in rows.items():
            assert np.array_equal(stacked[name][i], row), (name, i)
    assert isinstance(rows["poisson_bracket"], float)


@pytest.mark.parametrize("mass", [1e-200, 1e-160])
@pytest.mark.parametrize("model", [ModelId.CENTRAL1, ModelId.CENTRAL2,
                                   ModelId.NONCENTRAL])
def test_chart_jacobian_at_a_vanishing_m_omega_is_a_singularity(model, mass):
    # m omega underflows to 0 at 1e-200 and to a subnormal at 1e-160, whose
    # reciprocal overflows; either way the chart is singular, not a crash
    params = ModelParams(m=mass, omega=mass)
    xi = ao.sample_dual(model, np.random.default_rng(3), nondegenerate=True)
    with pytest.raises(ao.SingularityError, match="Jacobian"):
        orbit_chart.chart_jacobian(model, xi, params)


@pytest.mark.parametrize("model", [ModelId.CENTRAL1, ModelId.DOUBLE])
def test_stacked_phase_space_blocks_match_row_by_row(model):
    rng = np.random.default_rng(43)
    points = _sample_point(model, rng, PARAMS, any_orbit=True, size=8)
    pi = ao.poisson_tensor(model, points, PARAMS)
    for i in range(8):
        point = ao.OrbitPoint(model, points.coords[i], points.labels[i])
        # the whole tensor, so every momentum and position block at once
        assert np.array_equal(pi[i], ao.poisson_tensor(model, point, PARAMS))


@pytest.mark.parametrize("model", CHART_MODELS)
def test_chart_layer_rejects_foreign_and_mismatched_points(model):
    d = len(ao.CHART_COORDS[model])
    c = len(ao.CASIMIR_NAMES[model])
    coords = 0.4 + 0.1 * np.arange(3 * d).reshape(3, d)
    stacked = ao.orbit_point(model, coords, PARAMS)
    other = next(m for m in CHART_MODELS if m is not model)
    grad = ao.coordinate_gradient(model, ao.CHART_COORDS[model][0])
    calls = [
        lambda p, m: ao.poisson_tensor(m, p, PARAMS),
        lambda p, m: ao.omega_chart(m, p, PARAMS),
        lambda p, m: ao.omega_matrix(m, p, PARAMS),
        lambda p, m: ao.poisson_bracket(m, grad, grad, p, PARAMS),
    ]
    # batch shapes (3,) and (2,) do not broadcast; d + 1 coordinates
    unbroadcastable = ao.OrbitPoint(model, stacked.coords,
                                    stacked.labels[:2])
    too_long = ao.OrbitPoint(model, np.zeros(d + 1), stacked.labels[0])
    for call in calls:
        with pytest.raises(ao.ModelMismatchError):
            call(stacked, other)
        for point in (unbroadcastable, too_long):
            with pytest.raises(ao.DimensionMismatchError) as info:
                call(point, model)
            message = str(info.value)
            assert model.value in message and "\n" not in message
        # one orbit's labels meet a stack of coordinates
        mixed = ao.OrbitPoint(model, stacked.coords, stacked.labels[0])
        out, whole = call(mixed, model), call(stacked, model)
        for key in (out if isinstance(out, dict) else [None]):
            a = out if key is None else out[key]
            b = whole if key is None else whole[key]
            assert np.array_equal(a, b)
    with pytest.raises(ao.DimensionMismatchError, match=f"\\(..., {c}\\)"):
        ao.chart_poisson(model, np.zeros(d), np.zeros(c + 1), PARAMS)
    with pytest.raises(ao.DimensionMismatchError, match="broadcast"):
        ao.dual_from_chart(unbroadcastable, PARAMS)
    charge = "l" if model is ModelId.CENTRAL1 else "h"
    with pytest.raises(ao.ChartDegeneracyError, match="broadcast") as info:
        ao.orbit_point(model, coords, PARAMS, **{charge: np.ones(2)})
    assert "\n" not in str(info.value)
