"""Named Hamiltonians as coefficients.

kinetic_hamiltonian, energy_hamiltonian (central1, central2, double) and
canonical_hamiltonian each return a QuadraticHamiltonian H and its
gradient.  Their gradients are checked against central finite
differences, a stack against its rows, and both energies and gradients
against the per-model closed forms they replace, restated here.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import aristotle_orbits as ao
from aristotle_orbits import ModelId, ModelParams, QuadraticHamiltonian
from aristotle_orbits import dynamics

CHART_MODELS = (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE)
# orbit_point keywords per chart: (charges, hidden dual coordinates)
_LABELS = {
    ModelId.CENTRAL1: (("l",), ("E", "j")),
    ModelId.CENTRAL2: (("h",), ("j",)),
    ModelId.NONCENTRAL: (("h", "f"), ("E",)),
    ModelId.DOUBLE: (("h", "k"), ("j", "E")),
}


def _closed_form(name, model, point, params):
    """(energy, gradient) of the named Hamiltonian as per-model formulas."""
    lab = dict(zip(ao.CASIMIR_NAMES[model], point.labels.tolist()))
    m, w = params.m, params.omega
    if name == "kinetic":
        mom = [i for i, c in enumerate(ao.CHART_COORDS[model])
               if c in ("p", "p1", "p2")]

        def ham(z):
            return (z[..., mom] ** 2).sum(axis=-1) / (2.0 * m)

        def grad(z):
            g = np.zeros_like(z)
            g[..., mom] = z[..., mom] / m
            return g
    elif name == "canonical":
        def ham(z):
            j, _, p, q = np.moveaxis(z, -1, 0)
            return j * w + p**2 / (2.0 * m) + 0.5 * m * w**2 * q**2

        def grad(z):
            j, _, p, q = np.moveaxis(z, -1, 0)
            return np.stack((np.full_like(j, w), np.zeros_like(j), p / m,
                             q * (m * w**2)), axis=-1)
    elif model is ModelId.CENTRAL1:
        def ham(z):
            return np.full(z.shape[:-1], lab["E"])

        def grad(z):
            return np.zeros_like(z)
    elif model is ModelId.CENTRAL2:
        hw = lab["h"] * w

        def ham(z):
            return -hw * z[..., 3]

        def grad(z):
            g = np.zeros_like(z)
            g[..., 3] = -hw
            return g
    else:  # double
        k = lab["k"]

        def ham(z):
            return lab["U"] + 0.5 * k * (z[..., 2] ** 2 + z[..., 3] ** 2)

        def grad(z):
            g = np.zeros_like(z)
            g[..., 2:] = k * z[..., 2:]
            return g
    return ham, grad


def _term_scale(ham: QuadraticHamiltonian, z):
    """The energy with every term made positive.

    A sum that cancels (U + k |q|^2 / 2 near zero, say) has no meaningful
    ulp of its own, so energies are compared in ulps of this scale; where
    nothing cancels it is the energy's magnitude.
    """
    z = np.abs(z)
    return (abs(ham.offset) + z @ np.abs(ham.slope)
            + 0.5 * np.einsum("...i,ij,...j->...", z, np.abs(ham.hessian), z))


_scale = st.floats(0.5, 2.0)
_charge = st.tuples(st.sampled_from((-1.0, 1.0)), _scale).map(
    lambda t: t[0] * t[1])
_named = st.one_of(
    st.tuples(st.just("kinetic"), st.sampled_from(CHART_MODELS)),
    st.tuples(st.just("energy"), st.sampled_from(
        (ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.DOUBLE))),
    st.tuples(st.just("canonical"), st.just(ModelId.NONCENTRAL)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(named=_named, data=st.data())
def test_named_hamiltonians_are_their_coefficients(named, data):
    name, model = named
    params = ModelParams(m=data.draw(_scale), omega=data.draw(_scale),
                         r=data.draw(_scale))
    charges, hidden = _LABELS[model]
    labels = {key: data.draw(_charge) for key in charges}
    labels.update({key: data.draw(st.floats(-2.0, 2.0)) for key in hidden})
    if "f" in labels:
        labels["f"] = abs(labels["f"])
    d = len(ao.CHART_COORDS[model])
    n = data.draw(st.integers(1, 8))
    zs = np.array(data.draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
        min_size=n, max_size=n)))
    point = ao.orbit_point(model, zs[0], params, **labels)
    if name == "kinetic":
        ham, grad = ao.kinetic_hamiltonian(model, params)
    elif name == "energy":
        ham, grad = ao.energy_hamiltonian(model, point, params)
    else:
        ham, grad = ao.canonical_hamiltonian(params)
    assert isinstance(ham, QuadraticHamiltonian)
    assert grad == ham.gradient
    assert np.array_equal(ham.hessian, ham.hessian.T)

    stacked = grad(zs)
    assert stacked.shape == (n, d)
    for i in range(n):
        assert np.array_equal(stacked[i], grad(zs[i]))
    # central differences of a quadratic are exact up to their rounding,
    # about eps |H| / 1e-6 here
    assert np.abs(stacked - ao.gradient_fd(ham)(zs)).max() <= 1e-7

    # rounding only: p * (1 / m) is within 2 ulp of p / m, and the two
    # energy forms round each term in another order (3 ulp seen over 1e6
    # random points)
    old_ham, old_grad = _closed_form(name, model, point, params)
    np.testing.assert_array_max_ulp(stacked, old_grad(zs), maxulp=2)
    assert (np.abs(ham(zs) - old_ham(zs))
            <= 4 * np.spacing(_term_scale(ham, zs))).all()


def test_the_canonical_hamiltonian_is_the_canonical_chart_energy():
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    zs = np.random.default_rng(47).uniform(-2.0, 2.0, size=(200, 4))
    point = ao.OrbitPoint(ModelId.NONCENTRAL, zs, np.array([1.0, 1.1, 0.3]))
    ham, _ = dynamics.canonical_hamiltonian(params)
    energy = ao.canonicalize_noncentral(point, params)[:, 0]
    assert (np.abs(ham(zs) - energy)
            <= 4 * np.spacing(_term_scale(ham, zs))).all()
