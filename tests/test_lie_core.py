import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams
from aristotle_orbits.group_models import defective_central2_tensor

PARAMS = ModelParams()
ALL_MODELS = list(ModelId)


def test_rotation_is_counterclockwise():
    R = ao.rotation(np.pi / 2)
    assert np.allclose(R @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)
    assert np.allclose(ao.EPS0 @ [1.0, 0.0], [0.0, 1.0])


def test_eps_vec_and_cross_conventions():
    u = np.array([0.3, -1.2])
    assert np.allclose(ao.eps_vec(u), -(ao.EPS0 @ u))
    assert ao.cross2([1, 0], [0, 1]) == 1.0
    assert ao.cross2(u, ao.eps_vec(u)) == pytest.approx(-(u @ u), abs=1e-15)
    # a components-first stack gives the per-vector values bit for bit
    a, b = np.random.default_rng(31).uniform(-2, 2, (2, 2, 64))
    cross, eps = ao.cross2(a, b), ao.eps_vec(a)
    assert cross.shape == (64,) and eps.shape == (2, 64)
    for i in range(64):
        assert cross[i] == ao.cross2(a[:, i], b[:, i])
        assert np.array_equal(eps[:, i], ao.eps_vec(a[:, i]))
    assert np.allclose(eps, -(ao.EPS0 @ a))
    assert np.allclose(ao.cross2(a, eps), -(a * a).sum(axis=0),
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_structure_tensor_antisymmetry_is_exact(model):
    t = ao.structure_tensor(model, PARAMS)
    assert np.array_equal(t.c, -t.c.transpose(1, 0, 2))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_jacobi_defect_vanishes_for_builtin_tables(model):
    assert ao.jacobi_defect(ao.structure_tensor(model, PARAMS)) < 1e-12


def test_jacobi_defect_positive_for_defective_central2_variant():
    t = defective_central2_tensor(PARAMS)
    assert ao.jacobi_defect(t) == pytest.approx(PARAMS.omega / PARAMS.r**2)


def test_jacobi_defect_positive_for_bumped_coefficient():
    # doubling [J, P1] breaks the (J, P1, H) cycle of the double model
    t = ao.structure_tensor(ModelId.DOUBLE, PARAMS)
    c = t.c.copy()
    a, b, out = t.index("J"), t.index("P1"), t.index("P2")
    c[a, b, out] *= 2.0
    c[b, a, out] *= 2.0
    bad = ao.StructureTensor(t.labels, c)
    assert ao.jacobi_defect(bad) == pytest.approx(1.0)


def test_bracket_rotation_pair():
    t = ao.structure_tensor(ModelId.BASE, PARAMS)
    J = ao.algebra_vector(ModelId.BASE, J=1.0)
    P1 = ao.algebra_vector(ModelId.BASE, P1=1.0)
    P2 = ao.algebra_vector(ModelId.BASE, P2=1.0)
    assert np.allclose(ao.bracket(t, J, P1), P2)
    assert np.allclose(ao.bracket(t, J, P2), -P1)


def test_bracket_antisymmetry_on_self():
    t = ao.structure_tensor(ModelId.DOUBLE, PARAMS)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(t.dim)
    assert np.allclose(ao.bracket(t, x, x), 0.0)


def test_bracket_double_momentum_force_pair():
    t = ao.structure_tensor(ModelId.DOUBLE, PARAMS)
    P1 = ao.algebra_vector(ModelId.DOUBLE, P1=1.0)
    F1 = ao.algebra_vector(ModelId.DOUBLE, F1=1.0)
    K = ao.algebra_vector(ModelId.DOUBLE, K=1.0)
    assert np.allclose(ao.bracket(t, P1, F1), K)


def test_bracket_dimension_mismatch():
    t = ao.structure_tensor(ModelId.BASE, PARAMS)
    with pytest.raises(ao.DimensionMismatchError):
        ao.bracket(t, np.zeros(3), np.zeros(4))


def test_ad_matrix_zero_vector():
    t = ao.structure_tensor(ModelId.CENTRAL1, PARAMS)
    assert np.array_equal(ao.ad_matrix(t, np.zeros(t.dim)), np.zeros((5, 5)))


def test_ad_matrix_matches_bracket_on_random_inputs():
    rng = np.random.default_rng(11)
    for model in ALL_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for _ in range(25):
            x = rng.uniform(-1, 1, t.dim)
            y = rng.uniform(-1, 1, t.dim)
            assert np.allclose(ao.ad_matrix(t, x) @ y, ao.bracket(t, x, y),
                               atol=1e-14)


def test_ad_matrix_rotation_block():
    t = ao.structure_tensor(ModelId.BASE, PARAMS)
    J = ao.algebra_vector(ModelId.BASE, J=1.0)
    m = ao.ad_matrix(t, J)
    assert np.array_equal(m[1:3, 1:3], ao.EPS0)


def test_coad_matrix_zero_vector():
    t = ao.structure_tensor(ModelId.DOUBLE, PARAMS)
    assert np.array_equal(ao.coad_matrix(t, np.zeros(t.dim)),
                          np.zeros((8, 8)))


def test_coad_pairing_identity():
    rng = np.random.default_rng(5)
    for model in ALL_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for _ in range(100):
            x = rng.uniform(-1, 1, t.dim)
            y = rng.uniform(-1, 1, t.dim)
            xi = rng.uniform(-1, 1, t.dim)
            lhs = (ao.coad_matrix(t, x) @ xi) @ y
            rhs = -(xi @ (ao.ad_matrix(t, x) @ y))
            assert abs(lhs - rhs) < 1e-12


def test_coad_matrix_central1_translation_feeds_action_channel():
    # the P2 row picks up the action coordinate with weight -1/r^2
    t = ao.structure_tensor(ModelId.CENTRAL1, PARAMS)
    m = ao.coad_matrix(t, ao.algebra_vector(ModelId.CENTRAL1, P1=1.0))
    i_p2, i_l = t.index("P2"), t.index("S")
    assert m[i_p2, i_l] == pytest.approx(-1.0 / PARAMS.r**2)


def test_kirillov_antisymmetry_random():
    rng = np.random.default_rng(9)
    for model in ALL_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for _ in range(20):
            xi = rng.uniform(-1, 1, t.dim)
            k = ao.kirillov_matrix(t, xi)
            assert np.max(np.abs(k + k.T)) < 1e-14


def test_kirillov_zero_point():
    t = ao.structure_tensor(ModelId.CENTRAL2, PARAMS)
    assert np.array_equal(ao.kirillov_matrix(t, np.zeros(6)), np.zeros((6, 6)))


def test_kirillov_central1_documented_pattern():
    # at l = m omega r^2 the 5x5 form carries p2, -p1 and m omega entries
    t = ao.structure_tensor(ModelId.CENTRAL1, PARAMS)
    p1, p2 = 2.0, -3.0
    xi = ao.dual_vector(ModelId.CENTRAL1, j=1.0, p1=p1, p2=p2, E=4.0,
                        l=PARAMS.l_sub)
    mw = PARAMS.m_omega
    expected = np.array([
        [0.0, p2, -p1, 0.0, 0.0],
        [-p2, 0.0, mw, 0.0, 0.0],
        [p1, -mw, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(ao.kirillov_matrix(t, xi), expected)


def test_kirillov_central2_documented_pattern():
    t = ao.structure_tensor(ModelId.CENTRAL2, PARAMS)
    p1, p2, h = 5.0, 7.0, PARAMS.l_sub
    xi = ao.dual_vector(ModelId.CENTRAL2, j=2.0, p1=p1, p2=p2, E=1.0, l=3.0,
                        h=h)
    mw, hw = PARAMS.m_omega, h * PARAMS.omega
    expected = np.array([
        [0.0, p2, -p1, 0.0, 0.0, 0.0],
        [-p2, 0.0, mw, 0.0, 0.0, 0.0],
        [p1, -mw, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -hw, 0.0],
        [0.0, 0.0, 0.0, hw, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(ao.kirillov_matrix(t, xi), expected)


def test_exp_coadjoint_identity_at_zero():
    t = ao.structure_tensor(ModelId.NONCENTRAL, PARAMS)
    xi = np.arange(1.0, 8.0)
    assert np.array_equal(ao.exp_coadjoint(t, np.zeros(7), xi), xi)


def test_exp_coadjoint_rotation_closed_form():
    # a pure rotation turns (p1, p2) counterclockwise and fixes E, l
    t = ao.structure_tensor(ModelId.CENTRAL1, PARAMS)
    theta = 0.7
    x = ao.algebra_vector(ModelId.CENTRAL1, J=theta)
    xi = ao.dual_vector(ModelId.CENTRAL1, j=0.2, p1=1.0, p2=-0.5, E=2.0, l=3.0)
    out = ao.exp_coadjoint(t, x, xi, tol=1e-14)
    assert np.allclose(out[1:3], ao.rotation(theta) @ xi[1:3], atol=1e-12)
    assert out[0] == pytest.approx(xi[0], abs=1e-12)
    assert out[3] == pytest.approx(xi[3])
    assert out[4] == pytest.approx(xi[4])


def test_exp_coadjoint_matches_group_action_on_one_param_subgroups():
    rng = np.random.default_rng(17)
    for model in ALL_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for label in ao.ALGEBRA_LABELS[model]:
            s = float(rng.uniform(-1, 1))
            xi = rng.uniform(-1, 1, t.dim)
            y = ao.algebra_vector(model, **{label: s})
            series = ao.exp_coadjoint(t, y, xi, tol=1e-14)
            closed = ao.coadjoint(model, ao.one_param_element(model, label, s),
                                  xi, PARAMS)
            assert np.max(np.abs(series - closed)) < 1e-6


@pytest.mark.parametrize("s", [10.0, 30.0, 50.0])
def test_exp_coadjoint_scales_large_arguments(s):
    # the plain series loses 3e-13 at 10 J and everything at 50 J to
    # cancellation; scaling and squaring keeps every subgroup at rounding
    rng = np.random.default_rng(29)
    for model in ALL_MODELS:
        t = ao.structure_tensor(model, PARAMS)
        for label in ao.ALGEBRA_LABELS[model]:
            xi = rng.uniform(-1, 1, t.dim)
            y = ao.algebra_vector(model, **{label: s})
            series = ao.exp_coadjoint(t, y, xi, tol=1e-14)
            closed = ao.coadjoint(model, ao.one_param_element(model, label, s),
                                  xi, PARAMS)
            assert (np.max(np.abs(series - closed))
                    < 1e-13 * (1.0 + np.max(np.abs(closed))))
    t = ao.structure_tensor(ModelId.BASE, PARAMS)
    xi = np.array([0.3, 0.5, -0.2, 0.1])
    closed = ao.coadjoint(ModelId.BASE,
                          ao.one_param_element(ModelId.BASE, "J", s), xi,
                          PARAMS)
    assert np.max(np.abs(ao.exp_coadjoint(
        t, ao.algebra_vector(ModelId.BASE, J=s), xi) - closed)) < 1e-13


def test_exp_coadjoint_overflow_is_a_series_error():
    t = ao.structure_tensor(ModelId.DOUBLE, PARAMS)
    x = ao.algebra_vector(ModelId.DOUBLE, P1=1e300)
    with pytest.raises(ao.SeriesConvergenceError, match="overflowed"):
        ao.exp_coadjoint(t, x, np.ones(t.dim))


@pytest.mark.parametrize("which", ["x", "xi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_exp_coadjoint_rejects_non_finite_input(which, bad):
    # up front: a nan xi would come back nan, an inf x would sum every term
    t = ao.structure_tensor(ModelId.DOUBLE, PARAMS)
    args = {"x": ao.algebra_vector(ModelId.DOUBLE, J=0.3),
            "xi": np.ones(t.dim)}
    args[which][1] = bad
    with pytest.raises(ValueError, match=f"{which} must be finite") as info:
        ao.exp_coadjoint(t, args["x"], args["xi"])
    assert "\n" not in str(info.value)


def test_exp_coadjoint_requires_positive_tolerance():
    t = ao.structure_tensor(ModelId.BASE, PARAMS)
    with pytest.raises(ValueError):
        ao.exp_coadjoint(t, np.zeros(4), np.zeros(4), tol=0.0)


def test_model_params_validation_and_derived_scales():
    with pytest.raises(ValueError):
        ModelParams(m=-1.0)
    p = ModelParams(m=2.0, omega=3.0, r=0.5)
    assert p.c == pytest.approx(1.5)
    assert p.l_sub == pytest.approx(2.0 * 3.0 * 0.25)


@pytest.mark.parametrize("name", ["m", "omega", "r"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_model_params_reject_non_finite_scales(name, value):
    with pytest.raises(ValueError):
        ModelParams(**{name: value})


@pytest.mark.parametrize("model", ALL_MODELS)
def test_stacked_algebra_matrices_match_row_by_row(model):
    t = ao.structure_tensor(model, ModelParams(m=1.7, omega=0.6, r=1.3))
    rng = np.random.default_rng(19)
    x, y = rng.uniform(-1, 1, (2, 64, t.dim))
    ad, coad = ao.ad_matrix(t, x), ao.coad_matrix(t, x)
    kir, br = ao.kirillov_matrix(t, x), ao.bracket(t, x, y)
    assert ad.shape == coad.shape == kir.shape == (64, t.dim, t.dim)
    assert br.shape == (64, t.dim)
    for i in range(64):
        assert np.array_equal(ad[i], ao.ad_matrix(t, x[i]))
        assert np.array_equal(coad[i], ao.coad_matrix(t, x[i]))
        assert np.array_equal(kir[i], ao.kirillov_matrix(t, x[i]))
        assert np.array_equal(br[i], ao.bracket(t, x[i], y[i]))
    with pytest.raises(ao.DimensionMismatchError):
        ao.kirillov_matrix(t, np.zeros((3, t.dim + 1)))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_stacked_exp_coadjoint_matches_single_series(model):
    t = ao.structure_tensor(model, PARAMS)
    rng = np.random.default_rng(23)
    # rows of very different size stop after different numbers of terms,
    # and the largest are scaled and squared a different number of times
    x = rng.uniform(-1, 1, (16, t.dim)) * np.geomspace(1e-3, 40.0, 16)[:, None]
    xi = rng.uniform(-1, 1, (16, t.dim))
    out = ao.exp_coadjoint(t, x, xi, tol=1e-14)
    for i in range(16):
        assert np.array_equal(out[i], ao.exp_coadjoint(t, x[i], xi[i],
                                                       tol=1e-14))
    # one dual point under a stack of algebra elements
    assert np.array_equal(ao.exp_coadjoint(t, x, xi[0], tol=1e-14)[3],
                          ao.exp_coadjoint(t, x[3], xi[0], tol=1e-14))
