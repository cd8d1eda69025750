"""Per-layer spans and counts for the traced run.

The layers are the modules of ``src/isogeo``.  For one pass the tracer
replaces, in every isogeo module namespace and in the package namespace,
each public function that an isogeo layer defines with a wrapper.  Because
the wrapper sits in the namespace of the caller, it sees every call a module
makes into the layer below as well as calls inside a layer.  It also wraps
the four maps of every ``Diffeomorphism`` and the function that the root
solver probes.  Each wrapper records a span: its layer, start, end and the
enclosing span; a layer's self time is the time of its spans minus the time
of their child spans.  Nothing under ``src/`` is edited, and every
replaced attribute is put back when the pass ends.

A function that a later change removes or renames is simply not found: its
metrics report 0 and the run prints a note instead of failing.
"""

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

import isogeo

LAYERS = ("diffeos", "quadrature", "isomaps", "pullback", "descent",
          "submanifold", "clustering", "datasets", "serialize", "experiments")
DIFFEO_MAPS = ("forward", "inverse", "jvp", "inv_jvp")
MANIFEST = "run_manifest.json"

# metric -> (unit, the isogeo attributes it is measured at)
METRICS = {
    "diffeos.calls": ("count", ["diffeos.Diffeomorphism"]),
    "diffeos.points": ("count", ["diffeos.Diffeomorphism"]),
    "diffeos.self_s": ("s", ["diffeos.Diffeomorphism"]),
    "quadrature.calls": ("count", ["quadrature"]),
    "quadrature.root_solves": ("count", ["quadrature.refine_root"]),
    "quadrature.root_probes": ("count", ["quadrature.refine_root"]),
    "quadrature.self_s": ("s", ["quadrature"]),
    "isomaps.calls": ("count", ["isomaps"]),
    "isomaps.vectorchange_calls": ("count", ["isomaps.vectorchange"]),
    "isomaps.self_s": ("s", ["isomaps"]),
    "pullback.calls": ("count", ["pullback"]),
    "pullback.validations": ("count", ["pullback.as_point"]),
    "pullback.self_s": ("s", ["pullback"]),
    "descent.field_evals": ("count", ["descent.iso_barycentre_field"]),
    "descent.trial_steps": ("count", ["descent.ird_step"]),
    "descent.accept_ratio": ("ratio", ["descent.iso_barycentre", "descent.ird_step"]),
    "descent.self_s": ("s", ["descent"]),
    "submanifold.projections": ("count", ["submanifold.tangent_projection"]),
    "submanifold.self_s": ("s", ["submanifold"]),
    "clustering.outer_iters": ("count", ["clustering.iso_kmeans"]),
    "clustering.stalls": ("count", ["clustering.iso_barycentre"]),
    "clustering.self_s": ("s", ["clustering"]),
    "datasets.self_s": ("s", ["datasets"]),
    "serialize.rows": ("count", ["serialize.write_csv"]),
    "serialize.bytes": ("bytes", ["serialize.write_csv", "serialize.write_json"]),
    "serialize.self_s": ("s", ["serialize"]),
    "experiments.self_s": ("s", ["experiments"]),
    "trace.overhead_s": ("s", []),
}


def _modules():
    names = [info.name for info in pkgutil.iter_modules(isogeo.__path__)]
    return [isogeo] + [importlib.import_module(f"isogeo.{name}") for name in names]


def _exists(dotted):
    module, _, attr = dotted.partition(".")
    try:
        namespace = importlib.import_module(f"isogeo.{module}")
    except ImportError:
        return False
    return not attr or hasattr(namespace, attr)


class Tracer:
    """Spans and counts of one traced pass; install with ``installed()``."""

    def __init__(self):
        self.calls = Counter()          # "layer.function" -> calls
        self.counts = Counter()         # points, probes, rows, bytes, ...
        self.self_s = defaultdict(float)
        self.notes = []
        self._stack = []                # open spans: [child time, start, layer]
        self._undo = []
        self._public = defaultdict(set)  # layer -> keys of its public functions

    def span(self, layer, key, fn, hook=None):
        """``fn`` wrapped so that every call is a span of ``layer`` counted under ``key``."""
        return functools.wraps(fn)(self._timed(layer, key, fn, hook))

    def _timed(self, layer, key, fn, hook=None):
        """``span`` without ``functools.wraps``, cheap enough to build per call."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[key] += 1
            frame = [0.0, clock(), layer]
            stack.append(frame)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- hooks: counts that need the arguments or the result ------------

    def _outermost_serialize(self):
        return sum(frame[2] == "serialize" for frame in self._stack) == 1

    def _wrote(self, path, rows):
        # The run manifest holds a wall time, so its size is not repeatable.
        if self._outermost_serialize() and os.path.basename(path) != MANIFEST:
            self.counts["serialize.rows"] += rows
            self.counts["serialize.bytes"] += os.path.getsize(path)

    # Hooks run inside the span of the function they wrap, so they look up
    # their arguments by a position found once, at install time.  A hook that
    # no longer finds the argument it reads only skips its count.

    def _argument(self, fn, name):
        argument = _Argument(fn, name)
        note = (f"counts that read argument {name!r} of {fn.__qualname__} "
                f"report 0: no such argument")
        if argument.position is None and note not in self.notes:
            self.notes.append(note)
        return argument

    def _write_csv(self, fn):
        path, rows = self._argument(fn, "path"), self._argument(fn, "rows")

        def hook(fn, args, kwargs):
            listed = rows.get(args, kwargs)
            if listed is not _MISSING:
                listed = list(listed)   # rows may be an iterator
                args, kwargs = rows.replace(args, kwargs, listed)
            result = fn(*args, **kwargs)
            where = path.get(args, kwargs)
            if listed is not _MISSING and where is not _MISSING:
                self._wrote(where, len(listed))
            return result
        return hook

    def _write_json(self, fn):
        path = self._argument(fn, "path")

        def hook(fn, args, kwargs):
            result = fn(*args, **kwargs)
            where = path.get(args, kwargs)
            if where is not _MISSING:
                self._wrote(where, 0)
            return result
        return hook

    def _trace_csv(self, fn):
        trace, path = self._argument(fn, "self"), self._argument(fn, "path")

        def hook(fn, args, kwargs):
            result = fn(*args, **kwargs)
            where, written = path.get(args, kwargs), trace.get(args, kwargs)
            if where is not _MISSING and written is not _MISSING:
                self._wrote(where, len(written))
            return result
        return hook

    def _refine_root(self, fn):
        g = self._argument(fn, "g")

        def hook(fn, args, kwargs):
            probed = g.get(args, kwargs)
            if probed is not _MISSING:
                # The probed function is arc-length code of the iso maps.
                args, kwargs = g.replace(args, kwargs, self._timed(
                    "isomaps", "quadrature.root_probe", probed))
            return fn(*args, **kwargs)
        return hook

    def _iso_barycentre(self, fn, args, kwargs):
        try:
            result = fn(*args, **kwargs)
        except isogeo.StallError as stall:
            self.counts["descent.accepted_steps"] += len(stall.trace) - 1
            raise
        self.counts["descent.accepted_steps"] += len(result[1]) - 1
        return result

    def _swallowed_stall(self, fn, args, kwargs):
        try:
            return self._iso_barycentre(fn, args, kwargs)
        except isogeo.StallError:
            self.counts["clustering.stalls"] += 1   # iso_kmeans keeps the best iterate
            raise

    def _iso_kmeans(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts["clustering.outer_iters"] += result.iterations
        return result

    def _hook(self, key, caller, fn):
        if key == "descent.iso_barycentre":
            return (self._swallowed_stall if caller == "isogeo.clustering"
                    else self._iso_barycentre)
        if key == "clustering.iso_kmeans":
            return self._iso_kmeans
        make = {"serialize.write_csv": self._write_csv,
                "serialize.write_json": self._write_json,
                "quadrature.refine_root": self._refine_root}.get(key)
        return make(fn) if make else None

    # -- installation ---------------------------------------------------

    def _instrument(self, diffeo):
        dim = getattr(diffeo, "dim", 1)

        def points(fn, args, kwargs):
            self.counts["diffeos.points"] += np.size(args[0]) // dim
            return fn(*args, **kwargs)

        for name in DIFFEO_MAPS:
            fn = diffeo.__dict__.get(name)
            if fn is not None:
                self._patch(diffeo, name,
                            self._timed("diffeos", f"diffeos.{name}", fn, points))

    def _install(self, manifolds):
        for module in _modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("isogeo.") or layer not in LAYERS:
                    continue
                key = f"{layer}.{obj.__name__}"
                if module.__name__ == obj.__module__:
                    self._public[layer].add(key)
                self._patch(module, attr, self.span(
                    layer, key, obj, self._hook(key, module.__name__, obj)))

        diffeo_cls = getattr(importlib.import_module("isogeo.diffeos"),
                             "Diffeomorphism", None)
        if diffeo_cls is not None:
            original_init = diffeo_cls.__init__
            tracer = self

            @functools.wraps(original_init)
            def init(obj, *args, **kwargs):
                original_init(obj, *args, **kwargs)
                tracer._instrument(obj)
            self._patch(diffeo_cls, "__init__", init)
            for M in manifolds:
                self._instrument(M.diffeo)

        trace_cls = getattr(importlib.import_module("isogeo.descent"),
                            "ConvergenceTrace", None)
        if trace_cls is not None and "write_csv" in vars(trace_cls):
            self._patch(trace_cls, "write_csv", self.span(
                "serialize", "descent.ConvergenceTrace.write_csv",
                trace_cls.write_csv, self._trace_csv(trace_cls.write_csv)))

        for metric, (_, needs) in METRICS.items():
            missing = [n for n in needs if not _exists(n)]
            if missing:
                self.notes.append(f"{metric} reports 0: isogeo."
                                  f"{', isogeo.'.join(missing)} not found")

    @contextlib.contextmanager
    def installed(self, manifolds):
        """Trace every call made inside the ``with`` block."""
        try:
            self._install(manifolds)
            yield self
        finally:
            self._restore()

    # -- results --------------------------------------------------------

    def metrics(self, overhead_s):
        calls, counts = self.calls, self.counts

        def layer_calls(layer):
            return sum(calls[key] for key in self._public[layer])

        trials = calls["descent.ird_step"]
        values = {
            "diffeos.calls": sum(calls[f"diffeos.{m}"] for m in DIFFEO_MAPS),
            "diffeos.points": counts["diffeos.points"],
            "quadrature.calls": layer_calls("quadrature"),
            "quadrature.root_solves": calls["quadrature.refine_root"],
            "quadrature.root_probes": calls["quadrature.root_probe"],
            "isomaps.calls": layer_calls("isomaps"),
            "isomaps.vectorchange_calls": calls["isomaps.vectorchange"],
            "pullback.calls": layer_calls("pullback"),
            "pullback.validations": calls["pullback.as_point"],
            "descent.field_evals": calls["descent.iso_barycentre_field"],
            "descent.trial_steps": trials,
            "descent.accept_ratio": (counts["descent.accepted_steps"] / trials
                                     if trials else 0.0),
            "submanifold.projections": calls["submanifold.tangent_projection"],
            "clustering.outer_iters": counts["clustering.outer_iters"],
            "clustering.stalls": counts["clustering.stalls"],
            "serialize.rows": counts["serialize.rows"],
            "serialize.bytes": counts["serialize.bytes"],
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s[layer]
        return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}


class _Argument:
    """One named argument of a function, located once from its signature."""

    def __init__(self, fn, name):
        params = list(inspect.signature(fn).parameters)
        self.name = name
        self.position = params.index(name) if name in params else None

    def _positional(self, args):
        return self.position is not None and self.position < len(args)

    def get(self, args, kwargs):
        if self._positional(args):
            return args[self.position]
        return kwargs.get(self.name, _MISSING)

    def replace(self, args, kwargs, value):
        if self._positional(args):
            return args[:self.position] + (value,) + args[self.position + 1:], kwargs
        return args, {**kwargs, self.name: value}


_MISSING = object()
