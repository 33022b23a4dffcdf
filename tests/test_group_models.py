import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams

PARAMS = ModelParams()
ALL_MODELS = list(ModelId)
CHART_MODELS = [ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE]


def distance(g, g2):
    return np.max(np.abs(g - g2))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_identity_is_neutral(model):
    rng = np.random.default_rng(1)
    e = ao.identity_element(model)
    for _ in range(20):
        g = ao.sample_element(model, rng)
        assert distance(ao.multiply(model, g, e, PARAMS), g) < 1e-15
        assert distance(ao.multiply(model, e, g, PARAMS), g) < 1e-15


def test_base_law_matches_closed_form():
    g = np.array([0.4, 1.0, 2.0, 0.3])
    g2 = np.array([-0.1, 0.5, -1.5, 0.8])
    out = ao.multiply(ModelId.BASE, g, g2, PARAMS)
    assert out[0] == pytest.approx(0.3)
    assert np.allclose(out[1:3], ao.rotation(0.4) @ g2[1:3] + g[1:3])
    assert out[3] == pytest.approx(1.1)


def test_central1_cocycle_value_on_unit_translations():
    g = ao.algebra_vector(ModelId.CENTRAL1, P1=1.0)
    g2 = ao.algebra_vector(ModelId.CENTRAL1, P2=1.0)
    out = ao.multiply(ModelId.CENTRAL1, g, g2, PARAMS)
    assert out[4] == pytest.approx(0.5)  # phi


def test_cocycle_examples():
    e = ao.identity_element(ModelId.BASE)
    g = np.array([0.3, 0.4, -0.9, 0.1])
    assert ao.cocycle(e, g, PARAMS) == 0.0
    a = ao.algebra_vector(ModelId.BASE, P1=1.0)
    b = ao.algebra_vector(ModelId.BASE, P2=1.0)
    assert ao.cocycle(a, b, PARAMS) == pytest.approx(0.5)


def test_cocycle_identity_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g1, g2, g3 = (ao.sample_element(ModelId.BASE, rng) for _ in range(3))
        lhs = (ao.cocycle(g1, g2, PARAMS)
               + ao.cocycle(ao.multiply(ModelId.BASE, g1, g2, PARAMS), g3,
                            PARAMS))
        rhs = (ao.cocycle(g2, g3, PARAMS)
               + ao.cocycle(g1, ao.multiply(ModelId.BASE, g2, g3, PARAMS),
                            PARAMS))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS)
def test_associativity_random_triples(model):
    rng = np.random.default_rng(4)
    for _ in range(200):
        g1, g2, g3 = (ao.sample_element(model, rng) for _ in range(3))
        left = ao.multiply(model, ao.multiply(model, g1, g2, PARAMS), g3,
                           PARAMS)
        right = ao.multiply(model, g1, ao.multiply(model, g2, g3, PARAMS),
                            PARAMS)
        assert distance(left, right) < 1e-12


def test_base_inverse_closed_form():
    g = np.array([0.7, 2.0, -1.0, 1.5])
    ginv = ao.inverse(ModelId.BASE, g, PARAMS)
    assert ginv[0] == pytest.approx(-0.7)
    assert np.allclose(ginv[1:3], -(ao.rotation(-0.7) @ g[1:3]))
    assert ginv[3] == pytest.approx(-1.5)


def test_inverse_of_identity():
    for model in ALL_MODELS:
        e = ao.identity_element(model)
        assert distance(ao.inverse(model, e, PARAMS), e) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_inverse_round_trip(model):
    rng = np.random.default_rng(6)
    e = ao.identity_element(model)
    for _ in range(100):
        g = ao.sample_element(model, rng)
        ginv = ao.inverse(model, g, PARAMS)
        assert distance(ao.multiply(model, g, ginv, PARAMS), e) < 1e-12
        assert distance(ao.multiply(model, ginv, g, PARAMS), e) < 1e-12


def test_model_mismatch_raises():
    # a base element (4 slots) and vectors of the wrong length for central1
    g = np.array([0.1, 0.0, 0.0, 0.0])
    e = ao.identity_element(ModelId.CENTRAL1)
    stack = np.zeros((3, 4))
    for call in (lambda: ao.multiply(ModelId.CENTRAL1, g, e, PARAMS),
                 lambda: ao.multiply(ModelId.CENTRAL1, e, stack, PARAMS),
                 lambda: ao.inverse(ModelId.CENTRAL1, g, PARAMS),
                 lambda: ao.adjoint(ModelId.CENTRAL1, e, np.zeros(4), PARAMS),
                 lambda: ao.coadjoint(ModelId.CENTRAL1, e, np.zeros(6), PARAMS),
                 lambda: ao.coadjoint(ModelId.CENTRAL1, stack, np.zeros(5),
                                      PARAMS)):
        with pytest.raises(ao.ModelMismatchError):
            call()


@pytest.mark.parametrize("model", ALL_MODELS)
def test_stacked_elements_match_row_by_row(model):
    # one broadcasting closed form: an (N, d) stack gives the 1-D results
    # exactly, row by row, and one element acts on a stack of vectors
    rng = np.random.default_rng(22)
    n, d = 25, ao.structure_tensor(model).dim
    g, g2 = ao.sample_element(model, rng, (2, n))
    v = rng.uniform(-1, 1, (n, d))
    batched = {
        "multiply": ao.multiply(model, g, g2, PARAMS),
        "inverse": ao.inverse(model, g, PARAMS),
        "adjoint": ao.adjoint(model, g, v, PARAMS),
        "coadjoint": ao.coadjoint(model, g, v, PARAMS),
        "coadjoint of one element": ao.coadjoint(model, g[0], v, PARAMS),
    }
    rows = {
        "multiply": [ao.multiply(model, a, b, PARAMS) for a, b in zip(g, g2)],
        "inverse": [ao.inverse(model, a, PARAMS) for a in g],
        "adjoint": [ao.adjoint(model, a, x, PARAMS) for a, x in zip(g, v)],
        "coadjoint": [ao.coadjoint(model, a, x, PARAMS)
                      for a, x in zip(g, v)],
        "coadjoint of one element": [ao.coadjoint(model, g[0], x, PARAMS)
                                     for x in v],
    }
    for name, out in batched.items():
        assert out.shape == (n, d), name
        assert np.array_equal(out, np.array(rows[name])), name


@pytest.mark.parametrize("model", ALL_MODELS)
def test_one_element_on_a_stack_matches_row_by_row(model):
    # the broadcast path of the laws: one element on either side of a
    # product, one element on a stack of vectors and a stack on one vector
    # give the single calls' rows exactly
    rng = np.random.default_rng(23)
    n = 25
    g, g2 = ao.sample_element(model, rng, (2, n))
    v = rng.uniform(-1, 1, g.shape)
    one = ao.sample_element(model, rng)
    cases = {
        "multiply, one element first": (
            ao.multiply(model, one, g2, PARAMS),
            [ao.multiply(model, one, b, PARAMS) for b in g2]),
        "multiply, one element second": (
            ao.multiply(model, g, one, PARAMS),
            [ao.multiply(model, a, one, PARAMS) for a in g]),
        "adjoint of one element": (
            ao.adjoint(model, one, v, PARAMS),
            [ao.adjoint(model, one, x, PARAMS) for x in v]),
        "adjoint on one vector": (
            ao.adjoint(model, g, v[0], PARAMS),
            [ao.adjoint(model, a, v[0], PARAMS) for a in g]),
        "cocycle": (
            ao.cocycle(g, g2, PARAMS),
            [ao.cocycle(a, b, PARAMS) for a, b in zip(g, g2)]),
        "cocycle, one element first": (
            ao.cocycle(one, g2, PARAMS),
            [ao.cocycle(one, b, PARAMS) for b in g2]),
        "cocycle, one element second": (
            ao.cocycle(g, one, PARAMS),
            [ao.cocycle(a, one, PARAMS) for a in g]),
    }
    for name, (out, rows) in cases.items():
        assert np.array_equal(out, np.array(rows)), name


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, np.ascontiguousarray(a).tobytes()


def _outputs(out) -> list:
    """The arrays of a result: an OrbitPoint's coordinates and labels."""
    if isinstance(out, ao.OrbitPoint):
        return [_bits(out.coords), _bits(out.labels)]
    return [_bits(out)]


def _law_calls(model):
    """(name, function, its array arguments) of each law on the model."""
    rng = np.random.default_rng(24)
    g, g2 = ao.sample_element(model, rng, (2, 6))
    v = rng.uniform(-1, 1, g.shape)
    calls = [
        ("multiply", lambda a, b: ao.multiply(model, a, b, PARAMS), (g, g2)),
        ("inverse", lambda a: ao.inverse(model, a, PARAMS), (g,)),
        ("adjoint", lambda a, d: ao.adjoint(model, a, d, PARAMS), (g, v)),
        ("coadjoint", lambda a, x: ao.coadjoint(model, a, x, PARAMS),
         (g, v)),
        ("cocycle", lambda a, b: ao.cocycle(a, b, PARAMS), (g, g2)),
    ]
    if model in CHART_MODELS:
        xi = ao.sample_dual(model, rng, nondegenerate=True, size=6)
        point = ao.chart_from_dual(model, xi, PARAMS)
        calls += [
            ("time_flow_exact",
             lambda x, t: ao.time_flow_exact(model, x, t, PARAMS),
             (xi, rng.uniform(-1, 1, 6))),
            ("casimirs", lambda x: ao.casimirs(model, x, PARAMS), (xi,)),
            ("chart_from_dual",
             lambda x: ao.chart_from_dual(model, x, PARAMS), (xi,)),
            ("dual_from_chart",
             lambda z, lab: ao.dual_from_chart(ao.OrbitPoint(model, z, lab),
                                               PARAMS),
             (point.coords, point.labels)),
        ]
    return calls


@pytest.mark.parametrize("model", ALL_MODELS)
def test_the_laws_never_write_into_their_arguments(model):
    # read-only arguments give the bits of writable copies, which the
    # calls leave as they were; the first argument is a stack, then one
    # element against the others' stacks
    for name, law, stacked in _law_calls(model):
        for args in (stacked, (stacked[0][0], *stacked[1:])):
            copies = [a.copy() for a in args]
            expected = _outputs(law(*copies))
            frozen = [a.copy() for a in args]
            for a in frozen:
                a.flags.writeable = False
            assert _outputs(law(*frozen)) == expected, name
            assert all(map(np.array_equal, copies, args)), name


@pytest.mark.parametrize("model", ALL_MODELS)
def test_adjoint_at_identity_is_identity_map(model):
    rng = np.random.default_rng(8)
    e = ao.identity_element(model)
    dx = rng.uniform(-1, 1, ao.structure_tensor(model).dim)
    assert np.allclose(ao.adjoint(model, e, dx, PARAMS), dx)


def test_adjoint_central1_pure_rotation():
    g = ao.algebra_vector(ModelId.CENTRAL1, J=0.9)
    dx = ao.algebra_vector(ModelId.CENTRAL1, P1=1.0, P2=-2.0, S=0.7)
    out = ao.adjoint(ModelId.CENTRAL1, g, dx, PARAMS)
    assert np.allclose(out[1:3], ao.rotation(0.9) @ dx[1:3])
    assert out[4] == pytest.approx(0.7)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_adjoint_derivative_matches_bracket(model):
    # centered difference of Ad(exp(s y)) at s = 0 against ad_y
    rng = np.random.default_rng(10)
    t = ao.structure_tensor(model, PARAMS)
    step = 1e-5
    for _ in range(10):
        y = rng.uniform(-1, 1, t.dim)
        dx = rng.uniform(-1, 1, t.dim)
        # parameters s y agree with exp(s y) to O(s^2)
        plus = ao.adjoint(model, step * y, dx, PARAMS)
        minus = ao.adjoint(model, -step * y, dx, PARAMS)
        fd = (plus - minus) / (2 * step)
        assert np.max(np.abs(fd - ao.bracket(t, y, dx))) < 1e-6


@pytest.mark.parametrize("model", ALL_MODELS)
def test_coadjoint_identity_element(model):
    rng = np.random.default_rng(12)
    xi = rng.uniform(-1, 1, ao.structure_tensor(model).dim)
    out = ao.coadjoint(model, ao.identity_element(model), xi, PARAMS)
    assert np.allclose(out, xi)


def test_coadjoint_double_pure_time_translation():
    g = ao.algebra_vector(ModelId.DOUBLE, H=3.0)
    xi = ao.dual_vector(ModelId.DOUBLE, j=0.1, p1=1.0, p2=2.0, E=0.5,
                        f1=-0.4, f2=0.8, h=1.0, k=1.0)
    out = ao.coadjoint(ModelId.DOUBLE, g, xi, PARAMS)
    assert np.allclose(out[4:6], xi[4:6])          # forces frozen
    assert np.allclose(out[1:3], xi[1:3] + 3.0 * xi[4:6])
    assert out[0] == pytest.approx(xi[0])
    assert out[3] == pytest.approx(xi[3])


@pytest.mark.parametrize("model", ALL_MODELS)
def test_coadjoint_one_parameter_subgroups_match_series_oracle(model):
    rng = np.random.default_rng(14)
    t = ao.structure_tensor(model, PARAMS)
    for label in ao.ALGEBRA_LABELS[model]:
        for s in (-1.0, -0.3, 0.5, 1.0):
            xi = rng.uniform(-1, 1, t.dim)
            y = ao.algebra_vector(model, **{label: s})
            series = ao.exp_coadjoint(t, y, xi)
            closed = ao.coadjoint(model, y, xi, PARAMS)
            assert np.max(np.abs(series - closed)) < 1e-6


@pytest.mark.parametrize("model", ALL_MODELS)
def test_coadjoint_homomorphism(model):
    rng = np.random.default_rng(16)
    n = ao.structure_tensor(model).dim
    for _ in range(100):
        g1 = ao.sample_element(model, rng)
        g2 = ao.sample_element(model, rng)
        xi = rng.uniform(-1, 1, n)
        joint = ao.coadjoint(model, ao.multiply(model, g1, g2, PARAMS), xi,
                             PARAMS)
        split = ao.coadjoint(model, g1, ao.coadjoint(model, g2, xi, PARAMS),
                             PARAMS)
        assert np.max(np.abs(joint - split)) < 1e-10


@pytest.mark.parametrize("model", [ModelId.NONCENTRAL, ModelId.DOUBLE])
def test_h_and_k_duals_are_fixed_exactly(model):
    rng = np.random.default_rng(18)
    labels = ao.DUAL_LABELS[model]
    idx = [labels.index("h")]
    if "k" in labels:
        idx.append(labels.index("k"))
    for _ in range(50):
        g = ao.sample_element(model, rng)
        xi = rng.uniform(-1, 1, len(labels))
        out = ao.coadjoint(model, g, xi, PARAMS)
        for i in idx:
            assert out[i] == xi[i]


def test_central1_time_translation_acts_trivially():
    rng = np.random.default_rng(20)
    for _ in range(20):
        xi = rng.uniform(-1, 1, 5)
        g = ao.algebra_vector(ModelId.CENTRAL1, H=float(rng.uniform(-2, 2)))
        assert np.array_equal(ao.coadjoint(ModelId.CENTRAL1, g, xi, PARAMS), xi)


def test_one_param_element_rejects_foreign_generator():
    with pytest.raises(ao.ModelMismatchError):
        ao.algebra_vector(ModelId.BASE, S=1.0)


@pytest.mark.parametrize("nondegenerate", [False, True])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_stacked_sample_dual_equals_single_draws(model, nondegenerate):
    stacked = ao.sample_dual(model, np.random.default_rng(9), nondegenerate,
                             size=(40, 5))
    assert stacked.shape == (40, 5, len(ao.DUAL_LABELS[model]))
    rng = np.random.default_rng(9)
    singles = [ao.sample_dual(model, rng, nondegenerate) for _ in range(200)]
    assert np.array_equal(stacked.reshape(200, -1), singles)


def test_stacked_dual_vector_broadcasts_its_components():
    xi = ao.dual_vector(ModelId.DOUBLE, p1=np.arange(3.0), k=2.0)
    assert xi.shape == (3, 8)
    for i in range(3):
        assert np.array_equal(xi[i], ao.dual_vector(ModelId.DOUBLE,
                                                    p1=float(i), k=2.0))


def test_stacked_algebra_vector_broadcasts_its_components():
    y = ao.algebra_vector(ModelId.BASE, J=np.arange(3.0))
    assert y.shape == (3, 4)
    for i in range(3):
        assert np.array_equal(y[i], ao.algebra_vector(ModelId.BASE,
                                                      J=float(i)))
    g = ao.algebra_vector(ModelId.DOUBLE, K=np.array([1.0, 2.0]))
    assert g.shape == (2, 8)
    assert np.array_equal(g[1], ao.algebra_vector(ModelId.DOUBLE, K=2.0))


def test_labelled_vectors_name_the_foreign_label():
    with pytest.raises(ao.ModelMismatchError,
                       match="'S' is not a generator of base"):
        ao.algebra_vector(ModelId.BASE, S=1.0)
    with pytest.raises(ao.ModelMismatchError,
                       match="'l' is not a dual label of base"):
        ao.dual_vector(ModelId.BASE, l=1.0)


@pytest.mark.parametrize("size", [None, 3, (3, 1000), (2, 5)])
@pytest.mark.parametrize("model", ALL_MODELS)
def test_sample_element_keeps_the_uniform_draws(model, size):
    # the same bits, and the same generator state after, as Generator.uniform
    bound = np.ones(ao.group_models.dim(model))
    bound[0] = np.pi
    shape = None if size is None else (*np.atleast_1d(size), bound.size)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    assert np.array_equal(ao.sample_element(model, rng, size),
                          ref.uniform(-bound, bound, shape))
    assert rng.random() == ref.random()


def test_rotation_by_minus_theta_shares_the_trig_of_theta():
    # the group laws build R(-theta) from cos(theta) and -sin(theta)
    theta = np.random.default_rng(13).uniform(-50.0, 50.0, 200_000)
    theta = np.concatenate((theta, [0.0, np.pi, -np.pi, 1e-300, 1e10]))
    assert np.array_equal(np.cos(-theta), np.cos(theta))
    assert np.array_equal(np.sin(-theta), -np.sin(theta))
