"""Function calls per ``run_verify``, counted by cProfile.

Runs ``run_verify`` at default params for seeds 0 .. SEEDS-1 in this one
process, each under its own profiler, and prints:

- the function calls (cProfile's total, builtins included) of the first
  run alone, which fills every cache of the process, and the mean of the
  later runs;
- the same two figures for each law that the checks call (``multiply``,
  ``adjoint``, ``coadjoint``, ``cocycle``, ``casimirs``,
  ``time_flow_exact``) and for ``expm``, the exponential series.

The package is imported from the ``src/`` directory next to this file, so
the figures belong to the tree the tool sits in.  Standard library and the
package only:

    python tools/verify_calls.py [SEEDS]

SEEDS defaults to 40 and must be at least 2.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aristotle_orbits import verify  # noqa: E402

#: Counted functions, by the file that defines them.
FUNCTIONS = (("group_models.py", "multiply"), ("group_models.py", "adjoint"),
             ("group_models.py", "coadjoint"), ("group_models.py", "cocycle"),
             ("orbit_chart.py", "casimirs"), ("dynamics.py", "time_flow_exact"),
             ("lie_core.py", "expm"))


def profile_run(seed: int) -> dict[str, int]:
    """Calls of one run_verify(seed=seed): "total", then per counted name."""
    profiler = cProfile.Profile()
    profiler.runcall(verify.run_verify, seed=seed)
    stats = pstats.Stats(profiler)
    counts = {"total": stats.total_calls}
    for filename, name in FUNCTIONS:
        counts[name] = sum(
            ncalls for (path, _, func), (_, ncalls, *_) in stats.stats.items()
            if func == name and Path(path).name == filename)
    return counts


def measure(seeds: int) -> dict[str, tuple[int, float]]:
    """Per counted name: (first run's calls, mean calls of the later runs).

    seeds is the number of runs, at least 2.
    """
    first, *later = (profile_run(seed) for seed in range(seeds))
    return {key: (first[key], statistics.fmean(run[key] for run in later))
            for key in first}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="?", type=int, default=40,
                        help="number of runs, seeds 0 .. SEEDS-1 (>= 2)")
    seeds = parser.parse_args(argv).seeds
    if seeds < 2:
        parser.error(f"need at least 2 seeds, got {seeds}")
    counts = measure(seeds)
    print(f"run_verify calls, seeds 0-{seeds - 1}, one process (cProfile)")
    print(f"{'':<16} {'first':>8} {'later mean':>12}")
    for key, (first, later) in counts.items():
        print(f"{key:<16} {first:>8} {later:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
