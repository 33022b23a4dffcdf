"""SHA-256 digests of `verify --out`'s stdout and JSON report, pinned.

The commands run every model at seeds 0, 1 and 5, at default parameters
and at (m, omega, r) = (1.7, 0.6, 1.3).  The digests were generated from
the tree before the command line stopped re-checking the inputs that the
library checks, so the test shows that the report kept every byte.

The report's measured residuals come from the samples' rotations and from
`expm`, `@` and the LAPACK SVD, whose last digits follow the BLAS kernel
(ROADMAP: "Same-seed bytes depend on the BLAS kernel"), so the test is
skipped when OPENBLAS_CORETYPE picks a kernel.

Regenerate the table (only for an intended change of the output) with

    PYTHONPATH=src python tests/test_verify_golden.py
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
    reason="OPENBLAS_CORETYPE is set: the residuals' bytes follow the BLAS "
           "kernel")

_SCALED = ["--m", "1.7", "--omega", "0.6", "--r", "1.3"]

#: The pinned commands, without their --out.
COMMANDS = {
    f"seed{seed}-{tag}": ["verify", "--seed", str(seed)] + flags
    for seed in (0, 1, 5)
    for tag, flags in (("default", []), ("scaled", _SCALED))}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_digests(name: str, workdir: str) -> dict[str, str]:
    """Digests of the stdout and JSON report of COMMANDS[name] in workdir."""
    out = io.StringIO()
    path = os.path.join(workdir, f"{name}.json")
    with contextlib.redirect_stdout(out):
        code = cli.main(COMMANDS[name] + ["--out", path])
    with open(path, "rb") as fh:
        report = fh.read()
    assert code == cli.EXIT_OK
    return {"stdout": _sha256(out.getvalue().encode()),
            "json": _sha256(report)}


GOLDEN = {
    'seed0-default': {
        'stdout':
            '78d3015f5936eae091fd18e7c92687ea86916eff94ad255645e9c09d7bda5faa',
        'json':
            'e6b695d6ec666673c4a74c28ea635add54a134b77648b22f23354a17dd974486',
    },
    'seed0-scaled': {
        'stdout':
            '6369118d8c7e12447cbe17721f2548ce28b61b24155223549c354e5d4411edc1',
        'json':
            'd7a2ca67e8f6b468d58bbc831cab25d113eb41c98f37c51dc1e70e0b8a0fe523',
    },
    'seed1-default': {
        'stdout':
            '6d6ed498a6ed155e0b06ddfbd2dbf9637306e925b773c78210646195ddd45867',
        'json':
            '9a2916a215e004ee315503ac59b02e025fd31f9f4d7f84b27fa90892d156cadf',
    },
    'seed1-scaled': {
        'stdout':
            'cb546fe1e4574127ab7e96a4af19ff965e05774124c12b46e8f11123ea8440bc',
        'json':
            'db72e7417cd8f7f8f2f6912c3d63f311cb41c7ffb8e33d8abcc4ff4950fc6161',
    },
    'seed5-default': {
        'stdout':
            '11723a4f37c85e4e52bab735fa32878bfb8679b8ee5edc6d22c265ea85af7e46',
        'json':
            '48b361d60db047dabc23aaeaf245c680738d6d3ec8953882214b1ec75c9a8b8c',
    },
    'seed5-scaled': {
        'stdout':
            '1fa897e72d01c7e95a2d634d80900b3002a512e6c3f9430cad4b6fe03582f5fe',
        'json':
            'a5a0d46f85dccb4cb12b05c52497956842bf16afc59d0eecb90656a0856a5937',
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_verify_matches_golden_digests(tmp_path, name):
    assert verify_digests(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("GOLDEN = {")
        for name in COMMANDS:
            print(f"    {name!r}: {{")
            for key, value in verify_digests(name, workdir).items():
                print(f"        {key!r}:\n            {value!r},")
            print("    },")
        print("}")
