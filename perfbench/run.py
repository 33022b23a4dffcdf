"""Benchmark of aristotle_orbits: one workload per call, in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Workloads are ``verify``, ``hamiltonian`` and ``group-flow`` (see
perfbench/README.md).  With ``--trace 0`` it measures the end-to-end
metrics: several fresh processes that only set up, for ``setup_s``, then
one process with one closed-loop client that runs ops back to back.  With
``--trace 1`` it runs two traced processes with the same seed, reports the
per-layer metrics per traced op, and exits with an error if their counts
differ.  Every worker process gets ``OPENBLAS_NUM_THREADS=1``,
``OMP_NUM_THREADS=1`` and ``PYTHONDONTWRITEBYTECODE=1``.

Prints every metric by name and unit, writes a result file with a
manifest under perfbench/results/, and prints one JSON object as the last
line of standard output.  Exits 2 without a result if the package source
is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("verify", "hamiltonian", "group-flow")

#: Fresh processes that only set up, besides the measuring one.
SETUP_PROBES = 9
#: Traced op pairs per traced process, fixed so that counts can repeat.
TRACED_OPS = {"verify": 2, "hamiltonian": 2, "group-flow": 3}
#: Whole-run budget, below the 180 s a run may take.
BUDGET_S = 170.0

#: Worker environment: one BLAS thread, since the program only does 2x2 to
#: 8x8 linear algebra on a 2-core host; and no bytecode written, so a run
#: writes nothing outside the checkout and set-up always compiles the
#: package source, whatever the caller's environment says.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}

#: Host reference speed: timings are rescaled to a host on which the
#: worker's reference loop takes this long (see worker.host_ref).
REF_NOMINAL_S = 0.010

#: Bounded metrics.  The timings are at the reference host speed.
END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Reported and written to the result file, but not bounded: the raw wall
#: clock timings, which follow the host's speed modes; error_rate, which is
#: 0 on a correct program; ref_err_max, a rounding-level maximum.
REPORTED_ONLY = {
    "setup_wall_s": "s", "op_p50_wall_s": "s", "op_tail_wall_s": "s",
    "items_per_wall_s": "1/s", "host_ref_s": "s", "error_rate": "ratio",
    "ref_err_max": "abs",
}

CHECKS = ("check_structure", "check_group_axioms", "check_cocycle",
          "check_adjoint_consistency", "check_coadjoint_oracle",
          "check_homomorphism", "check_casimirs", "check_bracket_tables",
          "check_restricted_forms", "check_canonical_chart",
          "check_time_flows")
PER_FUNCTION = {
    "lie_core": (("rotation", ("calls",)),
                 ("exp_coadjoint", ("calls", "self_s")),
                 ("kirillov_matrix", ("calls", "self_s"))),
    "group_models": tuple((f, ("calls", "self_s")) for f in (
        "multiply", "coadjoint", "inverse", "sample_element",
        "structure_tensor")),
    "orbit_chart": tuple((f, ("calls", "self_s")) for f in (
        "chart_from_dual", "dual_from_chart", "casimirs", "poisson_tensor",
        "orbit_point")),
    "dynamics": (("time_flow_exact", ("calls", "self_s")),),
}
DYNAMICS_COUNTERS = ("steps", "rhs_evals", "rhs_evals_per_step",
                     "solver_failures")


class RunError(RuntimeError):
    """A worker failed or the run cannot produce a result."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fns in PER_FUNCTION.items():
        units[f"{layer}.self_s"] = "s"
        for fn, kinds in fns:
            for kind in kinds:
                units[f"{layer}.{fn}.{kind}"] = (
                    "count" if kind == "calls" else "s")
    units["group_models.structure_tensor.distinct_ratio"] = "ratio"
    for name in DYNAMICS_COUNTERS:
        units[f"dynamics.{name}"] = (
            "ratio" if name == "rhs_evals_per_step" else "count")
    for check in CHECKS:
        units[f"verify.{check}.s"] = "s"
    units["verify.self_s"] = "s"
    units["cli.main.self_s"] = "s"
    units["cli.write_trajectory_csv.self_s"] = "s"
    units["cli.bytes_written"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_worker(args, mode: str, deadline: float,
               spans: str | None = None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--traced-ops", str(TRACED_OPS[args.workload])]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **WORKER_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run budget exhausted")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker exceeded the run budget") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With n samples sorted, that is the (n - 10)-th smallest, the
    100 (n - 10) / n percentile.
    """
    n = len(samples)
    if n < 11:
        raise RunError(f"{n} ops are too few for a tail with ten beyond it")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_rev() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def manifest(args, numpy_version: str, package_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "package_version": package_version,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "worker_env": WORKER_ENV,
        "platform": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


@dataclass
class Outcome:
    """What one run reports: bounded metrics first, then everything else."""

    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    versions: tuple[str, str]  # numpy, package
    extra: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def summarize_ops(ops: list) -> tuple[int, int, float]:
    """Attempted and failed op counts and the largest reference error."""
    failed = sum(1 for op in ops if not op[2])
    return len(ops), failed, max(op[3] for op in ops)


def measure(args, deadline: float) -> Outcome:
    setups = [run_worker(args, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    res = run_worker(args, "measure", deadline)
    setups.append(res)
    ops = res["ops"]
    attempted, failed, ref_err = summarize_ops(res["warmup"] + ops)

    def at_ref(wall: float, host_ref: float) -> float:
        return wall * REF_NOMINAL_S / host_ref

    def timings(op_times: list[float], setup_times: list[float]) -> list:
        op_tail, _ = tail(op_times)
        return [statistics.median(setup_times), statistics.median(op_times),
                op_tail, sum(op[1] for op in ops) / sum(op_times)]

    wall = [op[0] for op in ops]
    ref = [at_ref(op[0], op[4]) for op in ops]
    names = ("setup", "op_p50", "op_tail", "items_per")
    metrics = dict(zip((f"{n}_s" for n in names), timings(
        ref, [at_ref(r["setup_s"], r["host_ref_s"]) for r in setups])))
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    extra = dict(zip((f"{n}_wall_s" for n in names), timings(
        wall, [r["setup_s"] for r in setups])))
    extra.update(host_ref_s=statistics.median(op[4] for op in ops),
                 error_rate=failed / attempted, ref_err_max=ref_err)
    _, tail_pct = tail(wall)
    at = f"at reference host speed ({REF_NOMINAL_S * 1e3:g} ms loop)"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes, {at}",
        "op_p50_s": f"median of {len(ops)} ops, {at}",
        "op_tail_s": f"p{tail_pct:.1f} of {len(ops)} ops, "
                     f"10 samples beyond it, {at}",
        "items_per_s": f"{res['item']} per second of op time, {at}",
        "host_ref_s": "median reference loop time beside the ops",
        "error_rate": f"{failed} of {attempted} ops failed",
        "ref_err_max": "largest deviation from a closed-form reference",
    }
    return Outcome(
        metrics, {**END_TO_END, **REPORTED_ONLY}, attempted, failed,
        (res["numpy"], res["package"]), extra=extra, notes=notes,
        detail={"setups": [[r["setup_s"], r["host_ref_s"]] for r in setups],
                "ops": ops, "warmup": res["warmup"], "wall_s": res["wall_s"],
                "failures": res["failures"],
                "ops_columns": ["wall_s", "items", "ok", "ref_err",
                                "host_ref_s"]})


#: Counters besides call counts that two same-seed traced runs must repeat.
DETERMINISTIC = ("steps", "rhs_evals", "solver_failures", "bytes_written",
                 "structure_keys")


def counts_of(res: dict) -> dict:
    counts = {name: row[0] for name, row in res["functions"].items()}
    counts.update({k: res["counters"][k] for k in DETERMINISTIC})
    return counts


def trace(args, deadline: float) -> Outcome:
    spans = os.path.join(RESULTS, f"{args.workload}-spans.bin")
    runs = [run_worker(args, "trace", deadline, spans=spans),
            run_worker(args, "trace", deadline)]
    a, b = (counts_of(r) for r in runs)
    if a != b:
        diff = sorted(k for k in a if a[k] != b.get(k))
        raise RunError("determinism guard: two traced runs with seed "
                       f"{args.seed} gave different counts for {diff}")

    nops = sum(len(r["pairs"]) for r in runs)
    # per traced op: [calls, self_s, inclusive_s] and counters
    funcs = {name: [sum(r["functions"][name][i] for r in runs) / nops
                    for i in range(3)]
             for name in runs[0]["functions"]}
    counters = {k: sum(r["counters"][k] for r in runs) / nops
                for k in runs[0]["counters"]}
    layers = runs[0]["layers"]

    def layer_self(layer: str) -> float:
        return sum(row[1] for n, row in funcs.items() if layers[n] == layer)

    m = {}
    for layer, fns in PER_FUNCTION.items():
        m[f"{layer}.self_s"] = layer_self(layer)
        for fn, kinds in fns:
            calls, self_s, _ = funcs[f"{layer}.{fn}"]
            for kind in kinds:
                m[f"{layer}.{fn}.{kind}"] = calls if kind == "calls" else self_s
    st_calls = funcs["group_models.structure_tensor"][0]
    m["group_models.structure_tensor.distinct_ratio"] = (
        counters["structure_keys"] / st_calls if st_calls else 0.0)
    m["dynamics.steps"] = counters["steps"]
    m["dynamics.rhs_evals"] = counters["rhs_evals"]
    m["dynamics.rhs_evals_per_step"] = (
        counters["rhs_evals"] / counters["steps"] if counters["steps"]
        else 0.0)
    m["dynamics.solver_failures"] = counters["solver_failures"]
    for check in CHECKS:
        m[f"verify.{check}.s"] = funcs[f"verify.{check}"][2]
    m["verify.self_s"] = layer_self("verify")
    m["cli.main.self_s"] = funcs["cli.main"][1]
    m["cli.write_trajectory_csv.self_s"] = funcs["cli.write_trajectory_csv"][1]
    m["cli.bytes_written"] = counters["bytes_written"]
    pairs = [p for r in runs for p in r["pairs"]]
    m["trace.overhead_ratio"] = statistics.median(t / u for u, t in pairs)

    attempted, failed, ref_err = summarize_ops(
        [op for r in runs for op in r["warmup"] + r["ops"]])
    units = per_layer_units()
    return Outcome(
        {name: m[name] for name in units}, units, attempted, failed,
        (runs[0]["numpy"], runs[0]["package"]),
        notes={"trace.overhead_ratio": f"median of {len(pairs)} op pairs",
               "dynamics.steps": "per traced op; counts repeat exactly"},
        detail={"functions_per_op": funcs, "counters_per_op": counters,
                "pairs": pairs,
                "failures": [f for r in runs for f in r["failures"]],
                "error_rate": failed / attempted, "ref_err_max": ref_err,
                "spans": os.path.relpath(spans, ROOT)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "aristotle_orbits",
                                       "__init__.py")):
        print("run.py: no package source under src/aristotle_orbits",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    try:
        out = trace(args, deadline) if args.trace else measure(args, deadline)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{out.attempted} ops attempted, {out.failed} failed")
    reported = {**out.metrics, **out.extra}
    for name, value in reported.items():
        note = f"  ({out.notes[name]})" if name in out.notes else ""
        print(f"  {name:<46} {value:.6g} {out.units[name]}{note}")
    for failure in out.detail["failures"]:
        print(f"  failure: {failure}")

    doc = {"manifest": manifest(args, *out.versions),
           "metrics": {n: {"value": v, "unit": out.units[n]}
                       for n, v in reported.items()},
           "attempted": out.attempted, "failed": out.failed,
           "detail": out.detail}
    path = os.path.join(RESULTS, f"{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"  result file {os.path.relpath(path, ROOT)}")

    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": out.units[n]}
                    for n, v in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
