"""tools/bench_pairs.py records which tree its change side measured, and
judges each bounded metric against its bound."""

import importlib.util
import json
import os
import pathlib
import subprocess

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=repo, check=True, capture_output=True)


def test_tree_state_names_every_file_that_differs_from_head(tmp_path):
    tree_state = _load().tree_state
    _git(tmp_path, "init", "-q")
    (tmp_path / ".gitignore").write_text("ignored/\n")
    (tmp_path / "kept.py").write_text("a = 1\n")
    (tmp_path / "gone.py").write_text("b = 2\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                          check=True, capture_output=True,
                          text=True).stdout.strip()

    clean = tree_state(str(tmp_path))
    assert clean["head"] == head
    assert (clean["dirty"], clean["paths"]) == (False, [])

    (tmp_path / "kept.py").write_text("a = 3\n")
    (tmp_path / "gone.py").unlink()
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "added.py").write_text("c = 4\n")
    (tmp_path / "ignored").mkdir()
    (tmp_path / "ignored" / "out.json").write_text("{}\n")
    dirty = tree_state(str(tmp_path))
    assert dirty["head"] == head and dirty["dirty"]
    assert dirty["paths"] == ["gone.py", "kept.py", "new/added.py"]

    # staging changes nothing; other bytes in a listed file change the digest
    _git(tmp_path, "add", "kept.py")
    assert tree_state(str(tmp_path)) == dirty
    (tmp_path / "new" / "added.py").write_text("c = 5\n")
    edited = tree_state(str(tmp_path))
    assert edited["paths"] == dirty["paths"]
    assert edited["sha256"] != dirty["sha256"]
    (tmp_path / "new" / "added.py").write_text("c = 4\n")
    assert tree_state(str(tmp_path))["sha256"] == dirty["sha256"]


def test_control_runs_a_second_archive_of_the_parent(tmp_path, monkeypatch):
    bench = _load()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "op_p50_s", "better": "lower"}]}))
    (repo / "src" / "m.py").write_text("a = 1\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "m.py").write_text("a = 2\n")  # the change

    sources = {}

    def run_once(tree, workload, seed, seconds):
        with open(os.path.join(tree, "src", "m.py")) as fh:
            sources[tree] = fh.read()
        return {"failed": 0, "attempted": 1, "op_p50_s": 1.0,
                "setup_wall_s": 1.0, "host_ref_s": 1.0}

    monkeypatch.setattr(bench, "ROOT", str(repo))
    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    for control in (True, False):
        sources.clear()
        argv = ["HEAD", "--workload", "verify", "--pairs", "2",
                "--out", str(out)] + ["--control"] * control
        assert bench.main(argv) == 0
        run = json.loads(out.read_text())["runs"][-1]
        assert run["control"] is control
        same = run["change"]["src_sha256"] == run["parent"]["src_sha256"]
        assert same is control
        # two trees ran; the control's are both archives of the parent
        assert len(sources) == 2
        assert (str(repo) in sources) is not control
        assert sorted(sources.values()) == (
            ["a = 1\n"] * 2 if control else ["a = 1\n", "a = 2\n"])


def _pairs(name, parent, change):
    return [{"parent": {name: p}, "change": {name: c}}
            for p, c in zip(parent, change)]


def test_summarize_flags_a_change_worse_beyond_its_bound():
    summarize = _load().summarize
    parent = [0.9, 1.0, 1.1]
    for factor, worse in ((1.30, True), (1.20, False), (0.70, False)):
        pairs = _pairs("op_p50_s", parent, [factor * v for v in parent])
        s = summarize(pairs, {"op_p50_s": "lower"}, {"op_p50_s": 0.25})
        assert s["op_p50_s"]["worse_beyond_bound"] is worse
    # higher is better: the mirror image
    for factor, worse in ((0.70, True), (0.80, False), (1.30, False)):
        pairs = _pairs("items_per_s", parent, [factor * v for v in parent])
        s = summarize(pairs, {"items_per_s": "higher"},
                      {"items_per_s": 0.25})
        assert s["items_per_s"]["worse_beyond_bound"] is worse
    # an unbounded metric gets no verdict
    s = summarize(_pairs("host_ref_s", parent, parent),
                  {"host_ref_s": "lower"}, {"op_p50_s": 0.25})
    assert "worse_beyond_bound" not in s["host_ref_s"]
