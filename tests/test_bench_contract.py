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
