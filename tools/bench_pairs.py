"""Alternating parent/change pairs of the benchmark, summarized per metric.

Runs ``perfbench/run.py`` in a ``git archive`` copy of a parent revision
and in the working tree, one after the other, for each pair.  Even pairs
run the parent first and odd pairs the change first, so a drift of the
host's speed during the session lands on both sides.  For every bounded
metric (the ``end_to_end`` list of BENCHMARK.json) it reports each side's
median and quartiles, the change/parent ratio of the medians, in how many
pairs the change did better, whether the gap between the medians
exceeds the parent's quartile distance, and the no-regression verdict
``worse_beyond_bound``: whether the change's median is worse than the
parent's, in the metric's ``better`` direction, by more than the metric's
``bound`` times the parent's median.  The raw set-up time and the host
reference loop (``setup_wall_s``, ``host_ref_s``) are summarized beside
them, with no bound and so no verdict.  Each run records what the
change side measured: its HEAD revision, whether the tree was dirty, the
paths that differ from HEAD and a SHA-256 over them (``tree_state``).
Standard library only:

    python tools/bench_pairs.py PARENT_REV --workload hamiltonian \\
        --pairs 10 --seconds 35 --seed 1 --out BENCH.json

With ``--control`` the change side is a second ``git archive`` copy of
the parent, so both sides run the same files: the spread of such a run is
the noise floor that a claimed change must clear.  Each run records
whether it was a control (``"control": true``).

``--workload`` may be given more than once; the workloads run one after
the other.  If the ``--out`` file exists, its runs are kept and the new
ones are added, so one file can hold several seeds, pair counts and
workloads.  The summary table goes to standard output; per-pair values
are in the file.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: Unbounded metrics of run.py's result file, summarized beside the bounded
#: ones: the raw set-up time and the host reference loop it is rescaled by.
REPORTED = {"setup_wall_s": "lower", "host_ref_s": "lower"}


def _git(*args: str, cwd: str | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd or ROOT, check=True,
                          capture_output=True).stdout


def tree_state(root: str) -> dict:
    """HEAD of the git tree at root and what differs from it.

    paths lists the files whose contents differ from HEAD: tracked files
    changed (staged or not) or deleted, and untracked files that
    .gitignore does not exclude.  sha256 is taken over each path and the
    SHA-256 of its bytes ("-" for a deleted file), so two trees with the
    same HEAD and sha256 hold the same files.
    """
    listed = (_git("diff", "--name-only", "-z", "HEAD", cwd=root)
              + _git("ls-files", "--others", "--exclude-standard", "-z",
                     cwd=root))
    paths = sorted({p.decode() for p in listed.split(b"\0") if p})
    h = hashlib.sha256()
    for path in paths:
        full = os.path.join(root, path)
        digest = "-"
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        h.update(f"{path}\0{digest}\n".encode())
    return {"head": _git("rev-parse", "HEAD", cwd=root).decode().strip(),
            "dirty": bool(paths), "paths": paths, "sha256": h.hexdigest()}


def export_tree(rev: str, dest: str, name: str = "parent") -> str:
    """The files of rev, unpacked in dest/name; the path of the copy."""
    tree = os.path.join(dest, name)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(tree)
    return tree


def src_digest(tree: str) -> str:
    """SHA-256 over the paths and bytes of the package source in tree."""
    h = hashlib.sha256()
    src = os.path.join(tree, "src")
    for base, _, files in sorted(os.walk(src)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree: op counts, bounded and REPORTED metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    path = os.path.join(tree, "perfbench", "results",
                        f"{workload}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        reported = json.load(fh)["metrics"]
    return {"failed": doc["failed"], "attempted": doc["attempted"],
            **{k: v["value"] for k, v in doc["metrics"].items()},
            **{k: reported[k]["value"] for k in REPORTED}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per metric: both sides' quartiles, ratio, wins, and the verdicts.

    better maps each metric to "lower" or "higher"; a metric in bounds
    also gets worse_beyond_bound, the no-regression verdict against its
    bound (a fraction of the parent's median).
    """
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(parent),
                                              quartiles(change))
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        out[name] = {
            "better": direction,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "ratio": cmed / pmed,
            "change_wins": f"{wins}/{len(pairs)}",
            "gap_exceeds_parent_iqr": abs(cmed - pmed) > pq3 - pq1,
        }
        if name in bounds:
            out[name]["worse_beyond_bound"] = (
                sign * (cmed - pmed) > bounds[name] * pmed)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent tree")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="JSON file to write (runs are added)")
    ap.add_argument("--control", action="store_true",
                    help="run a second archive of the parent as the change "
                         "side")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    doc = {"runs": []}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    parent_rev = _git("rev-parse", args.parent).decode().strip()
    change = {"rev": parent_rev} if args.control else tree_state(ROOT)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        trees = {"parent": export_tree(parent_rev, scratch),
                 "change": (export_tree(parent_rev, scratch, "control")
                            if args.control else ROOT)}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                  "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, args.seed,
                                          args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: op_p50_s "
                      f"parent {pair['parent']['op_p50_s']:.4g}, change "
                      f"{pair['change']['op_p50_s']:.4g}", flush=True)
            summary = summarize(pairs, {**better, **REPORTED}, bounds)
            doc["runs"].append({
                "workload": workload, "seed": args.seed,
                "seconds": args.seconds, "pairs": args.pairs,
                "control": args.control,
                "parent": {"rev": parent_rev,
                           "src_sha256": src_digest(trees["parent"])},
                "change": {**change,
                           "src_sha256": src_digest(trees["change"])},
                "failed_ops": {side: sum(p[side]["failed"] for p in pairs)
                               for side in ("parent", "change")},
                "summary": summary, "per_pair": pairs,
            })
            for name, s in summary.items():
                print(f"  {name:<12} parent {s['parent']['median']:.4g} "
                      f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  "
                      f"change {s['change']['median']:.4g} "
                      f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  "
                      f"ratio {s['ratio']:.3f}  wins {s['change_wins']}  "
                      f"beyond parent IQR {s['gap_exceeds_parent_iqr']}"
                      + (f"  worse beyond bound {s['worse_beyond_bound']}"
                         if "worse_beyond_bound" in s else ""))
    doc["manifest"] = {
        "tool": "tools/bench_pairs.py", "python": platform.python_version(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "written": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
