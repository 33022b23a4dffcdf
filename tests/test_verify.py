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


#: The law functions whose calls the checks below count, by module.
_LAWS = {"multiply": group_models, "adjoint": group_models,
         "coadjoint": group_models, "cocycle": group_models,
         "casimirs": orbit_chart, "time_flow_exact": dynamics}


def _law_calls(monkeypatch, run):
    """The law calls that run() makes, by name, those it never makes left
    out."""
    counts = dict.fromkeys(_LAWS, 0)
    for name, mod in _LAWS.items():
        def counted(*args, _name=name, _real=getattr(mod, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    run()
    return {name: n for name, n in counts.items() if n}


#: Law calls per model of each check: one per stage of a property, the
#: two sides it compares stacked into that call.
LAW_CALLS = {
    # (g1 g2, g2 g3), then ((g1 g2) g3, g1 (g2 g3)); (g1 e, e g1); and
    # (g g^-1, g^-1 g)
    verify.check_group_axioms: {"multiply": 4},
    # Ad at parameters (step y, -step y)
    verify.check_adjoint_consistency: {"adjoint": 1},
    # g1 g2 and Ad*_g2 xi, then Ad* of (g1 g2, g1) on (xi, Ad*_g2 xi)
    verify.check_homomorphism: {"multiply": 1, "coadjoint": 2},
    # the moved points, the Casimirs of (moved, original), and those of
    # the gradient's shifted points
    verify.check_casimirs: {"coadjoint": 1, "casimirs": 2},
    # the exact-flow row, then times (t1 + t2, t2), then t1
    verify.check_time_flows: {"time_flow_exact": 3},
}


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
@pytest.mark.parametrize("check", LAW_CALLS, ids=lambda c: c.__name__)
def test_each_check_makes_one_law_call_per_stage(monkeypatch, check, model):
    expected = LAW_CALLS[check]
    if model not in CHART_MODELS and check in (verify.check_casimirs,
                                               verify.check_time_flows):
        expected = {}  # chart models only
    assert _law_calls(monkeypatch, lambda: check(
        verify.Report(0), PARAMS, [model], np.random.default_rng(0))) == expected


def test_the_cocycle_check_makes_one_law_call_per_stage(monkeypatch):
    # (g1 g2, g2 g3), then the cocycle at all four pairs
    assert _law_calls(monkeypatch, lambda: verify.check_cocycle(
        verify.Report(0), PARAMS, np.random.default_rng(0))) == {
            "multiply": 1, "cocycle": 1}


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


def test_structure_tensor_is_cached_and_read_only():
    params = ModelParams(m=1.7, omega=0.6, r=1.3)
    tensor = ao.structure_tensor(ModelId.DOUBLE, params)
    assert ao.structure_tensor(ModelId.DOUBLE, params) is tensor
    assert ao.structure_tensor(ModelId.DOUBLE, ModelParams(
        m=1.7, omega=0.6, r=1.3)) is tensor
    with pytest.raises(ValueError, match="read-only"):
        tensor.c[1, 2, 3] = 1.0


def test_corruption_flips_only_its_rows_and_leaves_the_cache_clean():
    clean = verify.run_verify(models=[ModelId.DOUBLE], seed=2)
    corruption = {"model": "double", "a": "P1", "b": "F1", "out": "K",
                  "delta": 0.5}
    bad = verify.run_verify(models=[ModelId.DOUBLE], seed=2,
                            corruption=corruption)
    flipped = [b.name for c, b in zip(clean.checks, bad.checks) if c != b]
    assert flipped == ["double: jacobi identity"]
    assert not bad.all_passed
    # the rows, and the notes read from the memoized references
    after = verify.run_verify(models=[ModelId.DOUBLE], seed=2)
    assert after.as_dict() == clean.as_dict()


def test_a_run_leaves_nothing_behind_for_the_next():
    # no row is kept across runs, and the memoized series and probe
    # references are read-only: seed 7 at default params reports the same
    # after runs of another seed, other params and a corrupt config, and
    # each of those reports its own input
    first = verify.run_verify(seed=7).as_dict()
    other_seed = verify.run_verify(seed=8).as_dict()
    scaled = verify.run_verify(seed=7, params=ModelParams(
        m=1.7, omega=0.6, r=1.3)).as_dict()
    corrupt = verify.run_verify(seed=7, corruption={
        "model": "double", "a": "P1", "b": "F1", "out": "K", "delta": 0.5})
    assert verify.run_verify(seed=7).as_dict() == first
    assert other_seed["checks"] != first["checks"]
    assert scaled["checks"] != first["checks"]
    assert scaled["convention_notes"] != first["convention_notes"]
    assert not corrupt.all_passed


def _fills(**kwargs):
    """The memo entries that one run_verify(**kwargs) builds."""
    memos = (verify._oracle_series, verify._probe_references)
    before = sum(memo.cache_info().misses for memo in memos)
    verify.run_verify(**kwargs)
    return sum(memo.cache_info().misses for memo in memos) - before


def test_the_series_are_built_once_per_models_and_params():
    verify._oracle_series.cache_clear()
    verify._probe_references.cache_clear()
    params = ModelParams(m=2.3, omega=0.7, r=0.9)
    # five coadjoint series, then four chart models' probes
    assert _fills(seed=0, params=params) == 9
    assert _fills(seed=1, params=params) == 0
    # a one-model selection reuses what the full run built
    assert _fills(seed=1, params=params, models=[ModelId.DOUBLE]) == 0
    assert _fills(seed=1, params=ModelParams(m=2.3, omega=0.7, r=0.8)) == 9


def test_the_memoized_series_and_probe_references_are_read_only():
    x, xi, series = verify._oracle_series(ModelId.DOUBLE, PARAMS)
    probe = verify._probes(PARAMS)[ModelId.NONCENTRAL]
    for array in (x, xi, series, probe.xi, probe.factors, probe.reference):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]  # the same value, were it taken


def test_a_warm_memo_still_calls_the_laws(monkeypatch):
    verify.run_verify(models=[ModelId.DOUBLE], seed=0)  # fills the memo
    # each probe g = prod_a exp(s_a e_a) takes n - 1 products
    assert _law_calls(monkeypatch, lambda: verify.collect_convention_notes(
        PARAMS))["multiply"] == sum(group_models.dim(m) - 1
                                    for m in CHART_MODELS)
    monkeypatch.setattr(group_models, "coadjoint", _slot_shifted(
        group_models.coadjoint, ModelId.DOUBLE, 0, shift=1e-3))
    report = verify.run_verify(models=[ModelId.DOUBLE], seed=0)
    [row] = [c for c in report.checks
             if c.name == "double: coadjoint matches exponential oracle"]
    assert row.status == "fail"
    [note] = [n for n in report.convention_notes if n["term"] ==
              "coadjoint angular momentum, mixed translation term"]
    assert not note["oracle_agrees_with_implementation"]


def _flags(notes):
    return [(n["oracle_agrees_with_implementation"],
             n["oracle_rejects_alternate"]) for n in notes]


@pytest.mark.parametrize("params", [PARAMS, ModelParams(m=1.7, omega=0.6,
                                                        r=1.3)])
def test_every_convention_note_is_confirmed_by_the_oracle(params):
    notes = verify.collect_convention_notes(params)
    assert len(notes) >= 8
    assert {n["model"] for n in notes} == {m.value for m in CHART_MODELS}
    assert _flags(notes) == [(True, True)] * len(notes)
    assert all(type(flag) is bool for pair in _flags(notes) for flag in pair)
    assert all(n["difference_at_probe"] > verify.NOTE_TOL for n in notes)


def _slot_shifted(real, model, slot, shift=1e-6):
    """real with shift added to one output slot, on one model only."""
    def shifted(m, *args, **kwargs):
        out = real(m, *args, **kwargs)
        if m is model:
            out = out.copy()
            out[..., slot] += shift
        return out
    return shifted


@pytest.mark.parametrize("model,slot,term", [
    (ModelId.CENTRAL1, 0,
     "coadjoint angular momentum, quadratic translation term"),
    (ModelId.CENTRAL2, 2, "coadjoint momentum, translation charge"),
    (ModelId.NONCENTRAL, 0,
     "coadjoint angular momentum, factor and force coupling"),
    (ModelId.DOUBLE, 0, "coadjoint angular momentum, mixed translation term"),
])
def test_a_shifted_coadjoint_slot_fails_only_its_note(monkeypatch, model,
                                                      slot, term):
    monkeypatch.setattr(group_models, "coadjoint", _slot_shifted(
        group_models.coadjoint, model, slot))
    notes = verify.collect_convention_notes(PARAMS)
    assert [n["term"] for n in notes
            if not n["oracle_agrees_with_implementation"]] == [term]
    assert all(n["oracle_rejects_alternate"] for n in notes)


def test_a_frozen_time_flow_fails_its_note(monkeypatch):
    monkeypatch.setattr(dynamics, "time_flow_exact",
                        lambda model, xi, t, params: np.array(xi))
    notes = verify.collect_convention_notes(PARAMS)
    assert [n["term"] for n in notes
            if not n["oracle_agrees_with_implementation"]] == [
        "time flow on the orbit chart"]


def test_the_other_orientation_of_s_fails_its_note(monkeypatch):
    real = orbit_chart.casimirs

    def flipped(model, xi, params=PARAMS):
        values = real(model, xi, params).copy()
        if model is ModelId.DOUBLE:  # s -> 2 j - s
            values[..., 2] = 2.0 * np.asarray(xi)[..., 0] - values[..., 2]
        return values

    monkeypatch.setattr(orbit_chart, "casimirs", flipped)
    notes = verify.collect_convention_notes(PARAMS)
    [s_note] = [n for n in notes if n["term"].startswith("invariant s")]
    assert not s_note["oracle_agrees_with_implementation"]
    # the alternate is now the conserved orientation
    assert not s_note["oracle_rejects_alternate"]
    assert all(n["oracle_agrees_with_implementation"] for n in notes
               if n is not s_note)


def test_run_verify_at_int_scales_beyond_the_float_product_is_a_singularity():
    # as test_orbit_chart's int-scale test, through the whole suite
    messages = []
    for scale in (10**160, 1e160):
        with pytest.raises(ao.SingularityError) as info:
            verify.run_verify(params=ModelParams(m=scale, omega=scale))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
