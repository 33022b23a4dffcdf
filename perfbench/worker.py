"""One fresh benchmark process: set up, then run one workload's ops.

Usage: worker.py --root DIR --workload NAME --seed N --mode MODE
                 [--seconds S] [--traced-ops K] [--spans PATH]

Modes:
  setup    import the package and make op 0's inputs, then stop;
  measure  one warm-up op, then timed ops, back to back, until --seconds
           have passed and at least MIN_OPS ops are timed;
  trace    one warm-up op, then K pairs of (untraced op i, traced op i)
           on the same inputs.

Prints one JSON object as the last line of standard output.  The set-up
clock starts before numpy or the package is imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

#: Fewest timed ops per measure run, so that the op_tail_s percentile has
#: at least ten samples beyond it.
MIN_OPS = 11
#: Iterations of the host reference loop (about 10 ms on a 2-vCPU Xeon VM).
REF_LOOP = 100_000


def host_ref() -> float:
    """Seconds the fixed pure-Python reference loop takes now, best of 3.

    The host switches between speed modes about 1.6x apart for minutes at
    a time; timing this loop next to each op tracks the mode, so run.py
    can rescale op times to one reference host speed.  The loop touches
    no package code, so a change to the program cannot move it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import aristotle_orbits
    if os.path.dirname(os.path.dirname(
            os.path.abspath(aristotle_orbits.__file__))) != src:
        raise ImportError(f"aristotle_orbits was imported from "
                          f"{aristotle_orbits.__file__}, not from {src}")
    return aristotle_orbits


def one_op(wl, i: int, timed_ops: list, failures: list,
           tracer=None) -> float:
    """Run, time and check op i; returns its wall time in seconds.

    Records [wall_s, items, ok, ref_err, host_ref_s], the last being the
    mean of the reference loop timed just before and just after the op.
    With a tracer, it is installed around the op alone, not its check.
    """
    inp = wl.inputs(i)
    ref_before = host_ref()
    if tracer is not None:
        tracer.begin_op(i)
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # an op that raises counts as failed
        error = exc
    finally:
        dur = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.end_op()
    ref = 0.5 * (ref_before + host_ref())
    if error is None:
        ok, items, ref_err, msg = wl.check(inp, out)
    else:
        ok, items, ref_err, msg = False, 0, float("inf"), repr(error)
    timed_ops.append([dur, items, ok, ref_err, ref])
    if not ok:
        failures.append(f"op {i}: {msg}")
    return dur


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced-ops", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    try:
        package = import_package(args.root)
    except ImportError as exc:
        print(f"worker: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import numpy
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(args.root, "perfbench",
                                                "results"))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.inputs(0)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "host_ref_s": host_ref(),
                  "numpy": numpy.__version__, "package": package.__version__}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        warmup, failures = [], []
        one_op(wl, 0, warmup, failures)
        ops = []
        if args.mode == "measure":
            start = time.perf_counter()
            i = 1
            while (time.perf_counter() - start < args.seconds
                   or len(ops) < MIN_OPS):
                one_op(wl, i, ops, failures)
                i += 1
            result["wall_s"] = time.perf_counter() - start
        else:
            from tracer import Tracer
            tracer = Tracer(package)
            pairs = []
            for i in range(1, args.traced_ops + 1):
                untraced = one_op(wl, i, ops, failures)
                traced = one_op(wl, i, ops, failures, tracer)
                pairs.append([untraced, traced])
            if args.spans:
                tracer.write_spans(args.spans)
            result.update(functions=tracer.table(),
                          layers=dict(zip(tracer.names, tracer.layer_of)),
                          counters=tracer.counters, pairs=pairs)
        result.update(
            warmup=warmup, ops=ops, failures=failures,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            item=wl.item)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
