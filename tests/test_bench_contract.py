"""The library names and outputs the perfbench harness depends on.

Loads perfbench/run.py, tracer.py and workloads.py by path, without
editing them, and checks that every function the per-layer report reads
is traced, then runs one checked op of each workload.
"""

import importlib.util
import pathlib
import sys

import pytest

import aristotle_orbits

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("run"), _load("tracer"), _load("workloads")


def test_every_name_the_report_reads_is_traced(bench):
    run, tracer, _ = bench
    traced = set(tracer.Tracer(aristotle_orbits).names)
    wanted = {f"{layer}.{fn}" for layer, fns in run.PER_FUNCTION.items()
              for fn, _ in fns}
    wanted |= {f"verify.{check}" for check in run.CHECKS}
    wanted |= {"cli.main", "cli.write_trajectory_csv",
               "dynamics.hamiltonian_flow", "dynamics.kinetic_hamiltonian",
               "dynamics.energy_hamiltonian"}
    assert len(run.CHECKS) == 11
    assert sorted(wanted - traced) == []


@pytest.mark.parametrize("workload", ["Verify", "Hamiltonian", "GroupFlow"])
def test_one_checked_op(bench, tmp_path, workload):
    _, _, workloads = bench
    wl = getattr(workloads, workload)(1, str(tmp_path))
    inp = wl.inputs(0)
    ok, items, ref_err, message = wl.check(inp, wl.run(inp))
    assert ok, message
    assert items > 0


def test_a_traced_hamiltonian_op_counts_its_steps_and_gradients(bench,
                                                                tmp_path):
    # the tracer unpacks the (H, gradient) pair of the named factories and
    # counts gradient calls: one check at z0 per flow on the matrix path
    _, tracer_mod, workloads = bench
    wl = workloads.Hamiltonian(1, str(tmp_path))
    inp = wl.inputs(1)
    tracer = tracer_mod.Tracer(aristotle_orbits)
    tracer.begin_op(1)
    tracer.install()
    try:
        codes = wl.run(inp)
    finally:
        tracer.uninstall()
        tracer.end_op()
    ok, _, _, message = wl.check(inp, codes)
    assert ok, message
    assert tracer.counters["rhs_evals"] == 3
    assert tracer.counters["steps"] == 14566  # 2 * 6283 + 2000
    assert tracer.counters["solver_failures"] == 0
