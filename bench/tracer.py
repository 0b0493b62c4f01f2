"""Run a workload's jobs in one process through `zeemanzones.cli.main`.

    python3 [-X importtime] bench/tracer.py JOBS.json OUT.json [--trace SPANS.json]

JOBS.json is a list of {"name", "argv"}.  Each job's stdout is captured
and written to OUT.json with its exit code and the batch wall time.

With --trace, the calls between the package's modules (the layers) are
timed from here, without editing the package: every function one layer
imported from another is rebound in the importing module, module
attributes used through `from . import thermo` go through a proxy, and
`QuadRule.nodes_weights`, the public methods and ring operators of
`ZonePoly` (when called from outside `exact`) and the tasks of `verify`'s
thread pool are wrapped.
Calls inside a module are not spanned.  `params` holds only constructors
and accessors and is not spanned, so its time lands in its callers.

Each wrapper records a span (id, parent, layer, name, thread, start, end)
plus the work it saw; parents are kept per thread, and a pool task's
parent is the span that submitted it.  Spans stay in memory and are
summarised at the end: a layer's self time is its spans' time minus the
part covered by their child spans, plus the module's own import time as
`-X importtime` reports it (every CLI job pays that import).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import itertools
import json
import sys
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass

import numpy as np

PKG = "zeemanzones"
LAYERS = ("cli", "verify", "thermo", "pathint", "kernels", "quadrature",
          "special", "spectrum", "exact")
ALL_MODULES = LAYERS + ("params",)
ZONEPOLY_OPS = ("__add__", "__sub__", "__mul__", "__rmul__")


def _nbytes(obj) -> int:
    """Bytes of the numbers a call returned (arrays, scalars, containers)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (complex, float, np.number)):
        return np.asarray(obj).nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(v) for v in obj)
    if is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def _kernel_work(fn):
    """Work counter for a kernels function: point pairs from the leading
    (broadcast) shapes of its X and Y arguments, and output bytes."""
    names = list(inspect.signature(fn).parameters)
    ix = names.index("X") if "X" in names else None
    iy = names.index("Y") if "Y" in names else None

    def arg(i, args, kwargs):
        return args[i] if i < len(args) else kwargs.get(names[i])

    def work(args, kwargs, result):
        evals = 0
        if ix is not None and iy is not None:
            X, Y = arg(ix, args, kwargs), arg(iy, args, kwargs)
            shape = np.broadcast_shapes(np.shape(X)[:-1], np.shape(Y)[:-1])
            evals = int(np.prod(shape, dtype=np.int64))
        return {"evals": evals, "bytes_out": _nbytes(result)}
    return work


def _nodes_work(args, kwargs, result):
    return {"nodes": int(result[0].shape[0]), "rules": 1}


def _tree_sum_work(args, kwargs, result):
    return {"tree_sum_elems": int(np.size(args[0] if args else kwargs["values"]))}


def _special_work(args, kwargs, result):
    return {"elems": int(np.size(result))}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # (id, parent, layer, name, thread, t0, t1, outer, work)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, layer, name=None, work=None, outer_only=False):
        """Span every call of fn; `work` counts what a call did, and with
        outer_only only at spans with no enclosing span of the same layer."""
        name = name or f"{layer}.{fn.__name__}"
        spans, ids, stack_of = self.spans, self._ids, self.stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1][0] if stack else None
            outer = all(entry[1] != layer for entry in stack)
            sid = next(ids)
            stack.append((sid, layer))
            result = done = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                counted = (work(args, kwargs, result)
                           if done and work and (outer or not outer_only) else None)
                spans.append((sid, parent, layer, name,
                              threading.get_ident(), t0, t1, outer, counted))
        return spanned

    def current(self):
        stack = self.stack()
        return stack[-1] if stack else None


def install(tracer: Tracer, modules: dict) -> None:
    """Rebind every cross-layer call of the package to a spanned wrapper."""
    layer_of = {}                     # function -> layer that defines it
    for layer in LAYERS:
        mod = modules[layer]
        for obj in vars(mod).values():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                layer_of[obj] = layer

    wrappers = {}

    def wrapped(fn):
        if fn not in wrappers:
            layer, work = layer_of[fn], None
            if layer == "kernels":
                work = _kernel_work(fn)
            elif layer == "special":
                work = _special_work
            elif fn.__name__ == "tree_sum":
                work = _tree_sum_work
            wrappers[fn] = tracer.wrap(fn, layer, work=work,
                                       outer_only=layer == "kernels")
        return wrappers[fn]

    class Boundary:
        """Stands in for a layer module that another module imported whole."""

        def __init__(self, mod):
            self._mod = mod

        def __getattr__(self, name):
            obj = getattr(self._mod, name)
            return wrapped(obj) if inspect.isfunction(obj) and obj in layer_of else obj

    for caller in ALL_MODULES:
        mod = modules[caller]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and layer_of.get(obj, caller) != caller:
                setattr(mod, name, wrapped(obj))
            elif any(obj is modules[layer] for layer in LAYERS):
                setattr(mod, name, Boundary(obj))

    QuadRule = modules["quadrature"].QuadRule
    QuadRule.nodes_weights = tracer.wrap(QuadRule.nodes_weights, "quadrature",
                                         "quadrature.QuadRule.nodes_weights",
                                         _nodes_work)

    exact = modules["exact"]
    ZonePoly = exact.ZonePoly
    for name, attr in list(vars(ZonePoly).items()):
        static = isinstance(attr, staticmethod)
        fn = attr.__func__ if static else attr
        if not inspect.isfunction(fn) or (name.startswith("_")
                                          and name not in ZONEPOLY_OPS):
            continue
        spanned = tracer.wrap(fn, "exact", f"exact.ZonePoly.{name}")

        def boundary(*args, _fn=fn, _spanned=spanned, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == exact.__name__:
                return _fn(*args, **kwargs)
            return _spanned(*args, **kwargs)
        setattr(ZonePoly, name, staticmethod(boundary) if static else boundary)

    class TracedPool(ThreadPoolExecutor):
        """verify's pool: each task is a verify span whose parent is the
        span that submitted it."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            task_span = tracer.wrap(fn, "verify", "verify.pool_task")

            def task(*a, **kw):
                stack = tracer.stack()
                if parent is not None:
                    stack.append(parent)
                try:
                    return task_span(*a, **kw)
                finally:
                    if parent is not None:
                        stack.pop()
            return super().submit(task, *args, **kwargs)

    modules["verify"].ThreadPoolExecutor = TracedPool


def _covered(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarise(spans) -> dict:
    """Per-layer self time, calls and work counts from the spans."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[5], s[6]))
    out = {layer: defaultdict(int, self_s=0.0, calls=0) for layer in LAYERS}
    for sid, _, layer, _, _, t0, t1, outer, work in spans:
        agg = out[layer]
        agg["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        agg["calls"] += 1
        if outer:
            agg["outer_s"] += t1 - t0
        for key, value in (work or {}).items():
            agg[key] += value
    return {layer: dict(agg) for layer, agg in out.items()}


def parse_importtime(text: str) -> dict:
    """Self import seconds per layer from `-X importtime` lines."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[0].isdigit():
            continue
        mod = parts[2]
        if mod.startswith(PKG + ".") and mod[len(PKG) + 1:] in LAYERS:
            out[mod[len(PKG) + 1:]] = int(parts[0]) * 1e-6
    return out


def run_jobs(jobs, main):
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(job["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:       # a crashed job is reported, the batch goes on
                traceback.print_exc()
                code = 1
        results.append({"name": job["name"], "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results, time.perf_counter() - t0


def main(argv) -> int:
    jobs_path, out_path = argv[0], argv[1]
    spans_path = argv[3] if argv[2:3] == ["--trace"] else None
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    for m in ALL_MODULES:           # an import statement, so -X importtime sees it
        __import__(f"{PKG}.{m}")
    modules = {m: sys.modules[f"{PKG}.{m}"] for m in ALL_MODULES}
    cli_main = modules["cli"].main
    tracer = None
    if spans_path:
        tracer = Tracer()
        install(tracer, modules)
        cli_main = tracer.wrap(cli_main, "cli")
    results, wall = run_jobs(jobs, cli_main)
    doc = {"wall_s": wall, "jobs": results}
    if tracer is not None:
        doc["spans"] = len(tracer.spans)
        doc["layers"] = summarise(tracer.spans)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
