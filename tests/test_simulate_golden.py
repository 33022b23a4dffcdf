"""SHA-256 digests of `simulate`'s stdout and CSV file, pinned byte for byte.

The commands are the two README `simulate` examples (the exact group time
flow on the double model and the implicit-midpoint cyclotron) and the
three commands of the benchmark's `hamiltonian` workload at fixed points:
the cyclotron with either integrator and the noncentral energy flow.  The
digests were generated from the tree before the CSV writer stopped
building the whole (t, chart coordinates, Casimirs) table, so the test
shows that the writer kept every byte.

Four more commands run the stepped integrators, the path that re-reads the
noncentral chart's state-dependent Poisson tensor at every right-hand side:
the kinetic and canonical Hamiltonians on the noncentral chart, with RK4
and with implicit midpoint, at h = 1.7 (so kappa != 1) and f = 0.8.  Their
digests were generated from the tree before that re-read moved from a
hand-written matrix literal to the chart record's own Poisson entries.

Left out: every output that passes through numpy's vectorized
trigonometric kernels, whose bits follow the CPU features they dispatch
to.  Of these commands only the noncentral ones compute cos and sin: the
energy flow of phi_f in its energy, its gradient and its orbit labels, the
stepped flows in their orbit labels alone.  So all five start at
phi_f = 0, where both are exact; neither the kinetic nor the canonical
Hamiltonian computes trigonometry after that.  The double model's chart
maps and group time flow use no trigonometry.

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
_STEPPED = ["simulate", "--model", "noncentral", "--flow", "hamiltonian",
            "--dt", "0.01", "--steps", "2000", "--point=0.3,0.0,0.4,-0.7",
            "--label", "h=1.7", "--label", "f=0.8"]
# the stepped path, at phi_f = 0 again: h = 1.7 makes kappa != 1, so kinetic
# moves j and q through the state-dependent {j, p} and {j, q} entries, and
# canonical moves p and q
COMMANDS.update({
    f"noncentral-{ham}-{integrator.split('-')[-1]}":
        _STEPPED + ["--hamiltonian", ham, "--integrator", integrator]
    for ham in ("kinetic", "canonical")
    for integrator in ("rk4", "implicit-midpoint")})


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
    'noncentral-kinetic-rk4': {
        'stdout':
            '0d4f0a1328700c3e77be51e9c105582470a390a56fc9d08936b9dc15da834533',
        'csv':
            'c7ddac2d0c8f44a187917ad5c898f516e54f861cc0f891d06d55d71a01263524',
    },
    'noncentral-kinetic-midpoint': {
        'stdout':
            '8d04336157a5a6cfea54de902567611b89106491d24b835fd72de68aab34c7e5',
        'csv':
            'c330a7247c2177eb9d5f1ceed75ce4a66444b8df166488cc81ea0847a335034f',
    },
    'noncentral-canonical-rk4': {
        'stdout':
            'be41dbb80c4832148e3fc8f9fc0ca140059ddd9f0f0d3bdc3c0f55fd4591e569',
        'csv':
            'e992313ad51ea60b234ea7ad358dfff2e14ec60e0b204ae87f069fa997f19319',
    },
    'noncentral-canonical-midpoint': {
        'stdout':
            '55814d45d13b923ce736e88854be18cb681d7274b8f3795d86c4f09f16005a3e',
        'csv':
            'e2077cf04f5be6d7fbe01fcd84228bd4a7713992dfb56ae28ed61d16fefdc986',
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
