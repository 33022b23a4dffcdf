"""The batched verify checks: sampling, call counts and failing rows."""

import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import (ModelId, ModelParams, dynamics, group_models,
                              lie_core, orbit_chart, verify)

PARAMS = ModelParams()
CHART_MODELS = [ModelId.CENTRAL1, ModelId.CENTRAL2, ModelId.NONCENTRAL,
                ModelId.DOUBLE]


@pytest.mark.parametrize("any_orbit", [False, True])
@pytest.mark.parametrize("model", CHART_MODELS)
def test_stacked_sample_points_equal_single_draws(model, any_orbit):
    stacked = verify._sample_point(model, np.random.default_rng(3), PARAMS,
                                   any_orbit=any_orbit, size=32)
    rng = np.random.default_rng(3)
    for i in range(32):
        point = verify._sample_point(model, rng, PARAMS, any_orbit=any_orbit)
        assert np.array_equal(point.coords, stacked.coords[i])
        assert np.array_equal(point.labels, stacked.labels[i])
    if any_orbit:  # charges of both signs, magnitudes in [0.5, 2)
        charge = np.abs(stacked.labels[:, 0])
        assert (stacked.labels[:, 0] < 0).any()
        assert (stacked.labels[:, 0] > 0).any()
        assert ((charge >= 0.5) & (charge < 2.0)).all()


def test_casimir_gradients_of_a_stack_equal_single_calls():
    rng = np.random.default_rng(5)
    for model in CHART_MODELS:
        xis = ao.sample_dual(model, rng, nondegenerate=True, size=16)
        grads = verify._casimir_gradients(model, xis, PARAMS)
        for i, xi in enumerate(xis):
            assert np.array_equal(grads[i],
                                  verify._casimir_gradients(model, xi, PARAMS))


#: Calls per model that a verify run may make of each sampling or chart
#: function; the scalar sample loops made hundreds (553 _sample_point and
#: 2160 sample_dual calls per run).
CALLS_PER_MODEL = 5


def test_verify_makes_a_few_batched_calls_per_model(monkeypatch):
    names = ("_sample_point", "poisson_tensor", "kirillov_matrix",
             "sample_dual")
    counts = dict.fromkeys(names, 0)
    modules = (ao, lie_core, group_models, orbit_chart, dynamics, verify)
    for name in names:
        real = next(getattr(mod, name) for mod in modules
                    if hasattr(mod, name))

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    report = verify.run_verify(seed=0)
    assert report.all_passed and len(report.checks) == 67
    assert all(counts.values())
    limit = CALLS_PER_MODEL * len(verify.ALL_MODELS)
    assert max(counts.values()) <= limit, counts


def _rows(report, suffix):
    rows = [c for c in report.checks if c.name.endswith(suffix)]
    assert len(rows) == len(CHART_MODELS)
    return rows


def test_bracket_table_rows_fail_on_a_scaled_tensor_entry(monkeypatch):
    real = orbit_chart.chart_poisson

    def scaled(model, z, labels, params=PARAMS):
        pi = real(model, z, labels, params).copy()
        pi[..., 0, 1] *= 1.001
        return pi

    monkeypatch.setattr(orbit_chart, "chart_poisson", scaled)
    report = verify.Report(seed=0)
    verify.check_bracket_tables(report, PARAMS, CHART_MODELS,
                                np.random.default_rng(0))
    rows = _rows(report, "chart bracket table")
    assert all(c.status == "fail" and c.measured > 1e-4 for c in rows)


def test_kernel_rows_fail_on_a_perturbed_casimir(monkeypatch):
    real = orbit_chart.casimirs

    def perturbed(model, xi, params=PARAMS):
        values = real(model, xi, params).copy()
        values[..., -1] += 1e-6 * np.asarray(xi)[..., 1]  # + 1e-6 p1
        return values

    monkeypatch.setattr(orbit_chart, "casimirs", perturbed)
    report = verify.Report(seed=0)
    verify.check_casimirs(report, PARAMS, CHART_MODELS,
                          np.random.default_rng(0))
    rows = _rows(report, "casimir gradients span kirillov kernel")
    assert all(c.status == "fail" and c.measured > 1e-8 for c in rows)
