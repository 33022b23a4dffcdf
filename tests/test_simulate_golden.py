"""SHA-256 digests of `simulate`'s stdout and CSV file, pinned byte for byte.

The commands are the two README `simulate` examples (the exact group time
flow on the double model and the implicit-midpoint cyclotron) and the
three commands of the benchmark's `hamiltonian` workload at fixed points:
the cyclotron with either integrator and the noncentral energy flow.  The
digests were generated from the tree before the CSV writer stopped
building the whole (t, chart coordinates, Casimirs) table, so the test
shows that the writer kept every byte.

Left out: every output that passes through numpy's vectorized
trigonometric kernels, whose bits follow the CPU features they dispatch
to.  Of these commands only the noncentral energy flow computes cos and
sin (of phi_f, in its energy and gradient and in its orbit labels), so it
starts at phi_f = 0, where both are exact.  The double model's chart maps
and group time flow use no trigonometry.

The integrators' matrix products go through the BLAS, and the cyclotron's
last digits differ between OpenBLAS kernels (ROADMAP: "Same-seed bytes
depend on the BLAS kernel"), so the test is skipped when
OPENBLAS_CORETYPE picks a kernel.

Regenerate the table (only for an intended change of the output) with

    PYTHONPATH=src python tests/test_simulate_golden.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from aristotle_orbits import cli

pytestmark = pytest.mark.skipif(
    "OPENBLAS_CORETYPE" in os.environ,
    reason="OPENBLAS_CORETYPE is set: the cyclotron's bytes follow the BLAS "
           "kernel")

_CYCLOTRON = ["simulate", "--model", "double", "--flow", "hamiltonian",
              "--hamiltonian", "kinetic", "--dt", "0.001", "--steps", "6283"]

#: The pinned commands, without their --out.
COMMANDS = {
    "readme-group": ["simulate", "--model", "double", "--flow", "group",
                     "--dt", "0.003", "--steps", "1000", "--point", "0,0,1,0"],
    "readme-cyclotron": _CYCLOTRON + ["--integrator", "implicit-midpoint",
                                      "--point", "1,0,0,0"],
    "cyclotron-midpoint": _CYCLOTRON + ["--integrator", "implicit-midpoint",
                                        "--point=0.6,-0.8,0.3,-0.45"],
    "cyclotron-rk4": _CYCLOTRON + ["--integrator", "rk4",
                                   "--point=0.6,-0.8,0.3,-0.45"],
    # phi_f = 0: j, phi_f and q stay put, and only p moves
    "noncentral-energy": ["simulate", "--model", "noncentral", "--flow",
                          "hamiltonian", "--hamiltonian", "energy",
                          "--integrator", "implicit-midpoint", "--dt", "0.001",
                          "--steps", "2000", "--point=0.3,0.0,0.4,-0.7"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate_digests(name: str, workdir: str) -> dict[str, str]:
    """Digests of the stdout and CSV of COMMANDS[name], run in workdir.

    The file is written under a relative name, so stdout, which names it,
    is the same in every directory.
    """
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(COMMANDS[name] + ["--out", f"{name}.csv"])
        with open(f"{name}.csv", "rb") as fh:
            csv = fh.read()
    finally:
        os.chdir(here)
    assert code == cli.EXIT_OK
    return {"stdout": _sha256(out.getvalue().encode()), "csv": _sha256(csv)}


GOLDEN = {
    'readme-group': {
        'stdout':
            '5a773d1b1e472496800a3d8b32b418db004dcbf1624b5bdf4e3f60a9941ef97e',
        'csv':
            '615e489dd942fcc4b60ac2444d2b3f5c957a2862cecf79da07a24c66775a9ff6',
    },
    'readme-cyclotron': {
        'stdout':
            '6a4d17093ad56b6a027b4fbc17f0d23a273c136de292388eaf4a695f9c295ed1',
        'csv':
            '20f032afc6a8cdf1a6e06156c3e58dc5445e36b168359997062561c5864e2eaa',
    },
    'cyclotron-midpoint': {
        'stdout':
            '182b601955ad8dfcdf518b2936ee100c90c6cee563a5e812314b21cb283ca1ff',
        'csv':
            '32b28f1d6b909fa5d2e2eee10df2550e54de0b7e5cdbc0b47dede346721d22e2',
    },
    'cyclotron-rk4': {
        'stdout':
            '10d936f5bf857e21e2cd54c032ee8e6c6026967da72ed0811224b38e783bf39c',
        'csv':
            'e53da53bb91306a5c1bdf896d450eafdc05d80676f19e49a96230a08e06e02d7',
    },
    'noncentral-energy': {
        'stdout':
            '05fe2582eb3d616308f2d530c8eedb6af48a1328d63ecb7c8e80f9de4e4e0f5c',
        'csv':
            '828c087a29571d570ebb24eb683ad9b1e8c51212184751233c5fb03545b3a9ee',
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_simulate_matches_golden_digests(tmp_path, name):
    assert simulate_digests(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("GOLDEN = {")
        for name in COMMANDS:
            print(f"    {name!r}: {{")
            for key, value in simulate_digests(name, workdir).items():
                print(f"        {key!r}:\n            {value!r},")
            print("    },")
        print("}")
