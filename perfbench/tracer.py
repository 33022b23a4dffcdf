"""Outside-in tracer for the aristotle_orbits layers.

The tracer never edits the package source.  It replaces each traced
function, in every module namespace of the package that binds it, by a
wrapper that records one span per call.  Rebinding every namespace matters
because the modules reach each other both through module attributes
(``gm.multiply``) and through names imported with ``from .lie_core import
rotation``; patching only the defining module would miss the latter.

A span is attributed to the function's defining module (its layer).  Its
self time is its duration minus the time covered by its child spans, which
for a single thread is the sum of the children's durations.  Spans are
kept in memory in flat arrays and written once, by ``write_spans``.

Counters that are not call counts are taken at the same boundaries:
integrator steps from the trajectory ``hamiltonian_flow`` returns,
right-hand-side evaluations from a counting wrapper around the gradient
that ``kinetic_hamiltonian``/``energy_hamiltonian`` return, solver failures
from the exceptions leaving ``hamiltonian_flow``, the (model, params) keys
passed to ``structure_tensor``, and the size of each file
``write_trajectory_csv`` writes.
"""

from __future__ import annotations

import array
import importlib
import inspect
import itertools
import json
import os
import time

#: Traced layers, in call-stack order from the bottom up.
LAYERS = ("lie_core", "group_models", "orbit_chart", "dynamics", "verify",
          "cli")

#: The cli module is traced at its two boundaries only, so that
#: ``cli.main`` self time is everything the command line does itself
#: (argument parsing, config merging, building the initial point).
CLI_TRACED = ("main", "write_trajectory_csv")


class Tracer:
    """Wraps the public functions of the package's layers while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS}
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.counters = {"steps": 0, "rhs_evals": 0, "solver_failures": 0,
                         "bytes_written": 0, "structure_keys": 0}
        self.op = -1
        self._op_keys: set = set()
        self._ids = itertools.count()
        self._stack: list[list] = [[-1, 0.0]]
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_fid = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._wrappers: dict[int, tuple] = {}
        self._patched: list[tuple] = []
        self._solver_error = self.modules["dynamics"].SolverConvergenceError
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    continue
                if layer == "cli" and name not in CLI_TRACED:
                    continue
                self._add(layer, name, obj)

    # -- wrapping ---------------------------------------------------------

    def _add(self, layer: str, name: str, fn) -> None:
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        before = after = None
        if self.names[fid] == "group_models.structure_tensor":
            before = self._structure_key(fn)
        elif self.names[fid] == "dynamics.hamiltonian_flow":
            after = self._count_steps(fn)
        elif self.names[fid] in ("dynamics.kinetic_hamiltonian",
                                 "dynamics.energy_hamiltonian"):
            after = self._count_rhs
        elif self.names[fid] == "cli.write_trajectory_csv":
            after = self._count_bytes(fn)
        self._wrappers[id(fn)] = (fn, self._wrap(fid, fn, before, after))

    def _wrap(self, fid: int, fn, before, after):
        stack = self._stack
        ids = self._ids
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        rec_id, rec_parent = self.span_id.append, self.span_parent.append
        rec_fid, rec_op = self.span_fid.append, self.span_op.append
        rec_start, rec_end = self.span_start.append, self.span_end.append
        clock = time.perf_counter
        solver_error = self._solver_error
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except solver_error:
                counters["solver_failures"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                calls[fid] += 1
                self_s[fid] += dur - frame[1]
                incl_s[fid] += dur
                rec_id(frame[0])
                rec_parent(parent[0])
                rec_fid(fid)
                rec_op(tracer.op)
                rec_start(t0)
                rec_end(t1)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _structure_key(self, fn):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._op_keys.add(tuple(bound.arguments.values()))
        return before

    def _count_steps(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, traj):
            spec = sig.bind(*args, **kwargs).arguments["spec"]
            if spec.kind == "hamiltonian":
                self.counters["steps"] += len(traj.times) - 1
            return traj
        return after

    def _count_rhs(self, args, kwargs, result):
        ham, grad = result
        counters = self.counters

        def counted_grad(z):
            counters["rhs_evals"] += 1
            return grad(z)
        return ham, counted_grad

    def _count_bytes(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, result):
            path = sig.bind(*args, **kwargs).arguments["path"]
            self.counters["bytes_written"] += os.path.getsize(path)
            return result
        return after

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every package namespace."""
        for mod in (self.package, *self.modules.values()):
            for name, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_keys = set()

    def end_op(self) -> None:
        self.counters["structure_keys"] += len(self._op_keys)
        self.op = -1

    # -- results ----------------------------------------------------------

    def table(self) -> dict[str, list]:
        """{layer.function: [calls, self_s, inclusive_s]} over all ops."""
        return {name: [self.calls[i], self.self_s[i], self.incl_s[i]]
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw columns.

        Columns follow the header's order, each as a native-endian array
        of the header's typecode and ``count`` entries.
        """
        cols = (("id", self.span_id), ("parent", self.span_parent),
                ("function", self.span_fid), ("op", self.span_op),
                ("start_s", self.span_start), ("end_s", self.span_end))
        header = {"functions": self.names, "count": len(self.span_id),
                  "columns": [[name, col.typecode] for name, col in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in cols:
                col.tofile(fh)
