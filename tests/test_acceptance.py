"""Acceptance gate: one test per criterion, printing PASS/FAIL lines.

Criteria 1-3 and 5-8 read `verify` report rows at seeds 101-103 against
the tolerances CRITERIA pins per row kind, one line per kind; criteria 4, 9
and 10 measure directly.  See `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

import aristotle_orbits as ao
from aristotle_orbits import FlowSpec, ModelId, ModelParams
from aristotle_orbits.verify import CONVENTION_NOTES, run_verify
from helpers import cyclotron_exact, label_defect

PARAMS = ModelParams()  # m = omega = r = 1
SEEDS = (101, 102, 103)

#: The report row kinds each criterion owns, with their pinned tolerances.
CRITERIA = {
    1: {"antisymmetry": 1e-15, "jacobi identity": 1e-12},
    2: dict.fromkeys(("associativity", "identity element",
                      "inverse round trip", "two-cocycle identity"), 1e-12),
    3: {"adjoint/bracket consistency": 1e-6, "coadjoint homomorphism": 1e-10,
        "coadjoint matches exponential oracle": 1e-6},
    4: {"restricted kirillov form": 1e-12,
        "restricted form inverts documented inverse": 1e-10},
    5: {"casimir invariance": 1e-9,
        "casimir gradients span kirillov kernel": 1e-8},
    6: {"chart bracket table": 1e-12,
        "poisson tensor inverts chart form": 1e-10},
    7: dict.fromkeys(("time flow is trivial", "time flow group property",
                      "time flow advances l by h omega t",
                      "time flow pushes p by f t, rest frozen",
                      "time flow obeys dp/dt = -k q, dq/dt = 0"), 1e-12),
    8: {"canonical pair bracket {H, tau} = 1": 1e-9},
}


@pytest.fixture(scope="module")
def rows():
    """Report rows at SEEDS by kind (name after "model: "), and their notes."""
    reports = [run_verify(seed=seed, params=PARAMS) for seed in SEEDS]
    by_kind = {}
    for row in (row for report in reports for row in report.checks):
        by_kind.setdefault(row.name.rpartition(": ")[2], []).append(row)
    return by_kind, [report.convention_notes for report in reports]


def _line(number, name, defect, tolerance, note="", ok=True) -> bool:
    """Print a criterion line: PASS when ok and defect < tolerance."""
    ok = ok and defect < tolerance
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} "
          f"(defect {defect:.3e} < {tolerance:.0e}){note and f'  [{note}]'}")
    return ok


def _gate(number):
    """Criterion number's test: a line per row kind, and every row passes."""
    def test(rows):
        oks = []
        for kind, tol in CRITERIA[number].items():
            owned = rows[0].get(kind, [])
            worst = max((r.measured for r in owned), default=np.inf)
            oks.append(_line(number, kind, worst, tol, f"{len(owned)} rows",
                             all(r.status == "pass" and r.tolerance == tol
                                 for r in owned)))
        assert all(oks), f"criterion {number}: a row failed (see the lines)"
    return test


def test_every_report_row_belongs_to_exactly_one_criterion(rows):
    kinds = sorted(kind for table in CRITERIA.values() for kind in table)
    assert kinds == sorted(rows[0]), set(kinds) ^ set(rows[0])


test_criterion_01_algebra_validity = _gate(1)
test_criterion_02_group_validity = _gate(2)


def test_criterion_03_coadjoint_correctness(rows):
    _gate(3)(rows)
    for notes in rows[1]:
        assert len(notes) == len(CONVENTION_NOTES) >= 9
        assert all(n["oracle_agrees_with_implementation"]
                   and n["oracle_rejects_alternate"] for n in notes), notes
    print(f"[criterion  3] {len(notes)} convention notes, all confirmed")


def test_criterion_04_kirillov_matrices(rows):
    _gate(4)(rows)
    # integer dual coordinates with the charge substitution l = h = m omega r^2
    p1, p2, mw, h, w = 2, -3, PARAMS.m_omega, PARAMS.l_sub, PARAMS.omega
    cases = [(ModelId.CENTRAL1, dict(j=4, p1=p1, p2=p2, E=7, l=h),
              [[0, p2, -p1, 0, 0], [-p2, 0, mw, 0, 0], [p1, -mw, 0, 0, 0],
               [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]),
             (ModelId.CENTRAL2, dict(j=5, p1=p1, p2=p2, E=2, l=9, h=h),
              [[0, p2, -p1, 0, 0, 0], [-p2, 0, mw, 0, 0, 0],
               [p1, -mw, 0, 0, 0, 0], [0, 0, 0, 0, -h * w, 0],
               [0, 0, 0, h * w, 0, 0], [0, 0, 0, 0, 0, 0]])]
    defect = max(np.abs(ao.kirillov_matrix(ao.structure_tensor(m, PARAMS),
                                           ao.dual_vector(m, **xi))
                        - np.array(want)).max() for m, xi, want in cases)
    assert _line(4, "documented 5x5 and 6x6 kirillov matrices, entrywise",
                 defect, 1e-15, "exact on integer inputs", defect == 0)


test_criterion_05_casimir_invariance_and_kernel = _gate(5)
test_criterion_06_bracket_tables = _gate(6)
test_criterion_07_equations_of_motion = _gate(7)
test_criterion_08_canonicalization = _gate(8)


def _cyclotron(integrator, dt, nsteps):
    """The kinetic (magnetic) flow on the double chart from p = (1, 0)."""
    z0 = ao.orbit_point(ModelId.DOUBLE, (1.0, 0.0, 0.0, 0.0), PARAMS)
    ham, grad = ao.kinetic_hamiltonian(ModelId.DOUBLE, PARAMS)
    spec = FlowSpec(kind="hamiltonian", dt=dt, nsteps=nsteps,
                    integrator=integrator, hamiltonian=ham, gradient=grad)
    return ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0, PARAMS)


def test_criterion_09_magnetic_dynamics():
    period = 2 * np.pi / PARAMS.omega
    traj = _cyclotron("implicit-midpoint", 1e-3, round(period / 1e-3))
    p = traj.coords[:, :2]
    radii = np.hypot(p[:, 0], p[:, 1])
    assert np.max(np.abs(radii - radii[0])) < 1e-9  # circular in momentum
    angles = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
    rate = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
    assert _line(9, "magnetic momentum circle, period 2 pi / omega",
                 abs(2 * np.pi / abs(rate) - period), 1e-6)
    # the Casimirs of every sample's reconstructed dual point, and H
    drift = max(label_defect(traj, traj.casimir_series[0], PARAMS).max(),
                ao.invariant_drift(traj)["H"])
    assert _line(9, "casimir and energy drift along the magnetic flow",
                 drift, 1e-9)


def test_criterion_10_integrator_order():
    t_end = 2 * np.pi
    exact = np.concatenate(cyclotron_exact(np.array([1.0, 0.0]), np.zeros(2),
                                           t_end, PARAMS))
    errors = [np.abs(_cyclotron("rk4", t_end / n, n).coords[-1] - exact).max()
              for n in (64, 128, 256, 512)]
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    assert _line(10, "rk4 error ratio within [14, 18] per step halving",
                 max(abs(r - 16.0) for r in ratios), 2.0,
                 "ratios " + ", ".join(f"{r:.2f}" for r in ratios))
