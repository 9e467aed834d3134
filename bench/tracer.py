"""Span tracer that wraps qbanach's public functions from outside the package.

Every wrapped function records one span (name, start, end, parent span, job
id) per call.  Spans are kept in flat in-memory arrays while the traced pass
runs and written out once at the end.  A function is replaced in every
namespace that binds it (``eval_norm_rows`` lives in both ``qbanach.spaces``
and ``qbanach.envelope``, ``admissibility`` in ``radical``, ``hyperstab`` and
``cli``), so calls between modules are seen as well as calls from outside.
Nothing under ``src/`` is modified on disk.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("spaces", "envelope", "fixedpoint", "radical", "hyperstab", "cli")

# Names outside the modules' __all__ that the per-layer metrics need.
EXTRA_FUNCTIONS = {"spaces": ("sample_pairs", "sample_triples")}
METHODS = {"hyperstab": {"ExpansionTable": ("sextic_identity_error", "apply")}}


def _rows(a) -> int:
    a = np.asarray(a)
    return int(a.shape[0]) if a.ndim > 1 else 1


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``job`` is read at span start; the caller sets it before each job.
    Counters that need arguments or results (rows, iterations, accepted
    pairs...) are accumulated by per-function hooks, and only for outermost
    calls, so the recursion of ``eval_norm_rows`` through POWERED/SCALED
    bases is not counted twice.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.job_of: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.job = -1
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._installed: list | None = None

    # -- wrapping ---------------------------------------------------------
    def _hooks(self):
        c = self.counters

        def add(key, v):
            c[key] = c.get(key, 0) + v

        def rows(args, kwargs, out):
            X, Y = args[1], args[2]
            add("spaces.eval_norm_rows.rows", _rows(X))
            add("spaces.eval_norm_rows.bytes_computed",
                np.asarray(X).nbytes + np.asarray(Y).nbytes + np.asarray(out).nbytes)

        def envelope(args, kwargs, out):
            add("envelope.envelope_norm.improved", int(out.c1_observed < 1.0))

        def p_triangle(args, kwargs, out):
            add("envelope.check_p_triangle.trials", out.trials)
            add("envelope.check_p_triangle.violations", out.violations)

        def iterate(args, kwargs, out):
            add("fixedpoint.iterate.iterations", out.iterations)
            add("fixedpoint.iterate.converged", int(out.converged))

        def admissibility(args, kwargs, out):
            add("radical.admissibility.accepted", int(out[0]))

        def qm(args, kwargs, out):
            add("hyperstab.compute_Qm.iterations", out.iterations)
            add("hyperstab.compute_Qm.residual_pairs", out.residual_pairs)

        return {
            "spaces.eval_norm_rows": rows,
            "envelope.envelope_norm": envelope,
            "envelope.check_p_triangle": p_triangle,
            "fixedpoint.iterate": iterate,
            "radical.admissibility": admissibility,
            "hyperstab.compute_Qm": qm,
        }

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        calls_key = name + ".calls"
        counters = self.counters
        stack = self._stack
        name_id, parent, job_of = self.name_id, self.parent, self.job_of
        start, end = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            up = stack[-1]
            idx = len(start)
            name_id.append(nid)
            parent.append(up)
            job_of.append(tracer.job)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if up < 0 or name_id[up] != nid:
                counters[calls_key] = counters.get(calls_key, 0) + 1
                if hook is not None:
                    hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every binding of every
        wrapped function; built once, so span names keep their ids."""
        pkg = importlib.import_module("qbanach")
        mods = {m: importlib.import_module(f"qbanach.{m}") for m in MODULES}
        hooks = self._hooks()
        bindings = []
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    key = f"{short}.{attr}"
                    wrappers[id(fn)] = self._wrap(key, fn, hooks.get(key))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    bindings.append((cls, meth, fn,
                                     self._wrap(f"{short}.{cls_name}.{meth}", fn, None)))
        for ns in [pkg, *mods.values()]:
            for attr, value in vars(ns).items():
                w = wrappers.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    bindings.append((ns, attr, value, w))
        return bindings

    def install(self):
        """Wrap the public functions of every module in all their bindings."""
        if self._installed is None:
            self._installed = self._bindings()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._installed or ()):
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def self_times(self, jobs: bool = True) -> dict:
        """Self time per span name in seconds, over the spans of jobs
        (job id >= 0) or of set-up (job id -1).  Self time is the span's
        duration minus the time its direct children cover; spans nest
        strictly (one thread)."""
        n = len(self.start)
        if n == 0:
            return {name: 0.0 for name in self.names}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = (end - start).astype(np.float64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        job = np.frombuffer(self.job_of, dtype=np.int32)
        keep = job >= 0 if jobs else job < 0
        self_ns = np.bincount(names[keep], weights=(dur - child)[keep],
                              minlength=len(self.names))
        return {name: float(self_ns[i]) * 1e-9 for i, name in enumerate(self.names)}

    def write_spans(self, path: str):
        """Save every span as parallel arrays (numpy .npz): ``names`` and per
        span ``name_id``, ``start_ns``, ``end_ns``, ``parent`` (span index or
        -1) and ``job`` (job index, -1 for set-up)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job_of, dtype=np.int32))
