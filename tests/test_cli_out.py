"""The CLI's output files are rewritten in place, with the same bytes.

`cli._write_out` opens its path without O_TRUNC, writes from offset 0 and
trims the file at the end of what it wrote.  These tests pre-fill the
output path with a longer and with a shorter file of other bytes and
check that every pinned digest of the golden tests still holds, and that
the rewrite keeps the file itself: its inode, its mode and a symlink to
it.  A guard checks the open flags, so that a return to a truncating
open fails here and not only in the benchmark.
"""

import contextlib
import io
import json
import os

import pytest

import aristotle_orbits as ao
from aristotle_orbits import ModelId, cli
import test_simulate_golden as sim_golden
import test_verify_golden as verify_golden

#: Other bytes than any output: longer than the longest (the cyclotron's
#: CSV, about 0.6 MB) and shorter than the shortest.
FILLS = {"longer": b"stale,bytes\n" * 100_000, "shorter": b"stale\n"}

_GROUP_FLOW = ["simulate", "--model", "double", "--flow", "group",
               "--dt", "0.003", "--steps", "1000", "--point", "0,0,1,0"]


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check_fill(fill: str, path) -> None:
    """The fill was really longer, or shorter, than what replaced it."""
    size = os.path.getsize(path)
    assert size > 0 and (len(FILLS[fill]) > size) == (fill == "longer")


@pytest.mark.skipif("OPENBLAS_CORETYPE" in os.environ,
                    reason="the golden digests follow the BLAS kernel")
@pytest.mark.parametrize("fill", sorted(FILLS))
@pytest.mark.parametrize("name", sorted(sim_golden.COMMANDS))
def test_simulate_over_an_existing_file_matches_golden_digests(tmp_path, name,
                                                               fill):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(FILLS[fill])
    assert (sim_golden.simulate_digests(name, str(tmp_path))
            == sim_golden.GOLDEN[name])
    _check_fill(fill, path)


@pytest.mark.skipif("OPENBLAS_CORETYPE" in os.environ,
                    reason="the golden digests follow the BLAS kernel")
@pytest.mark.parametrize("fill", sorted(FILLS))
@pytest.mark.parametrize("name", sorted(verify_golden.COMMANDS))
def test_verify_report_over_an_existing_file_matches_golden_digests(
        tmp_path, name, fill):
    path = tmp_path / f"{name}.json"
    path.write_bytes(FILLS[fill])
    assert (verify_golden.verify_digests(name, str(tmp_path))
            == verify_golden.GOLDEN[name])
    _check_fill(fill, path)


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_simulate_json_over_an_existing_file_equals_a_fresh_write(tmp_path,
                                                                  fill):
    argv = _GROUP_FLOW + ["--format", "json", "--out"]
    fresh, over = tmp_path / "fresh.json", tmp_path / "over.json"
    over.write_bytes(FILLS[fill])
    assert run(argv + [str(fresh)]) == cli.EXIT_OK
    assert run(argv + [str(over)]) == cli.EXIT_OK
    assert over.read_bytes() == fresh.read_bytes()
    _check_fill(fill, over)


def test_json_chunks_are_the_text_of_json_dump_across_batches():
    doc = {"rows": [[i / 7, -i * 1e-5, float(i)] for i in range(5000)],
           "steps": 4999}
    pieces = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc))
    assert pieces > 3 * cli._JSON_BATCH
    text = io.StringIO()
    json.dump(doc, text, indent=2)
    text.write("\n")
    assert b"".join(cli._json_chunks(doc)) == text.getvalue().encode()


@pytest.mark.parametrize("argv", [
    _GROUP_FLOW, _GROUP_FLOW + ["--format", "json"],
    ["verify", "--model", "double"]], ids=["csv", "json", "verify"])
def test_out_to_dev_null_exits_zero(argv):
    # a character device: written, never trimmed
    assert run(argv + ["--out", os.devnull]) == cli.EXIT_OK


def test_symlinked_out_writes_through_the_link(tmp_path):
    fresh, target, link = (tmp_path / "fresh.csv", tmp_path / "target.csv",
                           tmp_path / "link.csv")
    target.write_bytes(FILLS["longer"])
    link.symlink_to(target)
    assert run(_GROUP_FLOW + ["--out", str(fresh)]) == cli.EXIT_OK
    assert run(_GROUP_FLOW + ["--out", str(link)]) == cli.EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_existing_file_keeps_its_inode_and_mode(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_bytes(FILLS["longer"])
    path.chmod(0o640)
    before = path.stat()
    assert run(_GROUP_FLOW + ["--out", str(path)]) == cli.EXIT_OK
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_size < before.st_size


def test_a_write_that_raises_part_way_leaves_no_stale_tail(tmp_path,
                                                           monkeypatch):
    z0 = ao.orbit_point(ModelId.DOUBLE, (0.0, 0.0, 1.0, 0.0))
    spec = ao.FlowSpec(dt=0.003, nsteps=3 * cli._CSV_BLOCK)
    traj = ao.hamiltonian_flow(ModelId.DOUBLE, spec, z0)
    fresh, path = tmp_path / "fresh.csv", tmp_path / "traj.csv"
    cli.write_trajectory_csv(str(fresh), traj)
    path.write_bytes(FILLS["longer"])
    blocks = []
    csv_lines = cli._csv_lines

    def fail_on_second_block(block):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise RuntimeError("second block")
        return csv_lines(block)

    monkeypatch.setattr(cli, "_csv_lines", fail_on_second_block)
    with pytest.raises(RuntimeError, match="second block"):
        cli.write_trajectory_csv(str(path), traj)
    # the header and the first block's lines, and nothing after them
    lines = fresh.read_bytes().splitlines(keepends=True)
    assert path.read_bytes() == b"".join(lines[:1 + cli._CSV_BLOCK])
    assert len(lines) > 2 + cli._CSV_BLOCK


@pytest.mark.parametrize("argv", [
    _GROUP_FLOW, _GROUP_FLOW + ["--format", "json"],
    ["verify", "--model", "double"]], ids=["csv", "json", "verify"])
def test_out_is_opened_without_o_trunc(tmp_path, monkeypatch, argv):
    path = str(tmp_path / "out")
    opened = []
    os_open = os.open

    def recording_open(file, flags, *args, **kwargs):
        opened.append((os.fspath(file), flags))
        return os_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert run(argv + ["--out", path]) == cli.EXIT_OK
    flags = [f for p, f in opened if p == path]
    assert flags, "the output path was not opened through os.open"
    assert all(f & os.O_CREAT and not f & os.O_TRUNC for f in flags)
    assert os.path.getsize(path) > 0
