"""Outside-in tracer for anderson2d: spans and hot-leaf counters.

The tracer wraps the package's public functions from the outside; nothing
in the package changes. A wrapped function is replaced at every place its
name is bound (its home module, from-import copies in sibling modules and
the package re-exports), because a from-import keeps the original object.

Spans (name, layer, start, end, parent) are recorded at the layer-level
calls and at the scipy calls beneath them. Hot leaves called hundreds of
thousands of times get count + summed-time counters instead, attributed to
the innermost open span. Everything stays in memory; :meth:`Tracer.layers`
reduces it to the per-layer metrics when the traced iteration ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

PACKAGE = "anderson2d"

# (owner, attribute, span name, layer). The owner is a module path or
# "module:Class"; methods and properties are patched on the class.
SPANS = [
    ("anderson2d.harness", "run", "harness.run", "harness"),
    ("anderson2d.noise", "sample_white_noise", "noise.sample_white_noise", "noise"),
    ("anderson2d.operator:AndersonOperator", "__init__", "operator.init", "operator"),
    ("anderson2d.operator:AndersonOperator", "resolvent_solve", "operator.resolvent_solve", "operator"),
    ("anderson2d.operator:AndersonOperator", "heat_apply", "operator.heat_apply", "operator"),
    ("anderson2d.operator:AndersonOperator", "dense_h", "operator.dense_h", "dense"),
    ("anderson2d.spectral", "eigendecompose", "spectral.eigendecompose", "spectral"),
    ("anderson2d.spectral", "gap_delta", "spectral.gap_delta", "spectral"),
    ("anderson2d.spectral", "form_bound_constant", "spectral.form_bound_constant", "spectral"),
    ("anderson2d.spectral", "kato_modulus_heat", "spectral.kato_modulus_heat", "spectral"),
    ("anderson2d.variational", "mountain_pass_solve", "variational.mountain_pass_solve", "variational"),
    ("anderson2d.variational", "newton_solve", "variational.newton_solve", "variational"),
    ("anderson2d.choquard", "selfdual_minimize", "choquard.selfdual_minimize", "choquard"),
    ("anderson2d.choquard:ChoquardProblem", "solve_a", "choquard.solve_a", "choquard"),
    ("anderson2d.grid", "save_field", "grid.save_field", "grid"),
    ("anderson2d.grid", "load_field", "grid.load_field", "grid"),
    ("scipy.sparse.linalg", "cg", "scipy.cg", "scipy"),
    ("scipy.sparse.linalg", "lgmres", "scipy.lgmres", "scipy"),
    ("scipy.sparse.linalg", "eigsh", "scipy.eigsh", "scipy"),
    ("scipy.sparse.linalg", "lobpcg", "scipy.lobpcg", "scipy"),
    ("scipy.sparse.linalg", "expm_multiply", "scipy.expm_multiply", "scipy"),
    ("scipy.linalg", "eigh", "scipy.linalg.eigh", "dense"),
    ("scipy.linalg", "eigvalsh", "scipy.linalg.eigvalsh", "dense"),
    ("scipy.linalg", "solve", "scipy.linalg.solve", "dense"),
]

# (owner, attribute, counter name); a property is counted through its getter
COUNTERS = [
    ("numpy.fft", "fft2", "fft"),
    ("numpy.fft", "ifft2", "fft"),
    ("anderson2d.operator:AndersonOperator", "apply_h", "apply_h"),
    ("anderson2d.variational", "energy", "energy"),
    ("anderson2d.grid:TorusGrid", "lap_multiplier", "lap_multiplier"),
    ("anderson2d.grid", "convolve", "convolve"),
]

PROGRAM_LAYERS = ("harness", "noise", "operator", "spectral", "variational",
                  "choquard", "grid")


def _resolve(owner):
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "start", "end", "extra",
                 "counts", "times")

    def __init__(self, sid, name, layer, parent, start):
        self.sid, self.name, self.layer, self.parent = sid, name, layer, parent
        self.start, self.end = start, start
        self.extra = {}
        self.counts = defaultdict(int)
        self.times = defaultdict(float)


def _on_return(span, args, kwargs, result, caught):
    """Record what a span's return value says about the work done."""
    name = span.name
    if name == "variational.mountain_pass_solve":
        # the string appends one trace entry per iteration; Newton none
        span.extra["string_iters"] = len(result.trace)
        span.extra["phi"] = float(result.phi)
    elif name == "variational.newton_solve":
        span.extra["newton_iters"] = int(result[1])
    elif name == "choquard.selfdual_minimize":
        span.extra["selfdual_iters"] = int(result.iterations)
    elif name == "spectral.eigendecompose":
        span.extra["residual_max"] = float(np.max(result.residuals))
    elif name in ("grid.save_field", "grid.load_field"):
        at = 2 if name == "grid.save_field" else 0
        path = args[at] if len(args) > at else kwargs["path"]
        span.extra["bytes"] = os.path.getsize(path)
    if name in ("scipy.lobpcg", "scipy.eigsh"):
        span.extra["unconverged"] = int(any(
            issubclass(w.category, UserWarning) for w in caught))


class Tracer:
    """Installs wrappers, records spans and counters, restores on uninstall."""

    def __init__(self):
        self.clock = time.perf_counter
        root = Span(0, "iteration", "benchmark", None, self.clock())
        self.spans = [root]
        self.stack = [root]
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        tracer = self
        catch = name in ("scipy.lobpcg", "scipy.eigsh")

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1]
            span = Span(len(tracer.spans), name, layer, parent.sid,
                        tracer.clock())
            tracer.spans.append(span)
            tracer.stack.append(span)
            caught = []
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    for w in caught:  # pass them on unchanged
                        warnings.warn_explicit(w.message, w.category,
                                               w.filename, w.lineno)
                else:
                    result = fn(*args, **kwargs)
                _on_return(span, args, kwargs, result, caught)
                return result
            finally:
                span.end = tracer.clock()
                tracer.stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = tracer.stack[-1]
                span.counts[counter] += 1
                span.times[counter] += tracer.clock() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, make):
        target = _resolve(owner)
        orig = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        if isinstance(orig, property):
            new = property(make(orig.fget), orig.fset, orig.fdel, orig.__doc__)
            self._set(target, attr, orig, new)
            return
        new = make(orig)
        self._set(target, attr, orig, new)
        if not isinstance(target, type):
            # every other place the name is bound: from-imports, re-exports
            for mod in _package_modules():
                for key, val in list(vars(mod).items()):
                    if val is orig and mod is not target:
                        self._set(mod, key, orig, new)

    def _set(self, obj, attr, orig, new):
        setattr(obj, attr, new)
        self._patches.append((obj, attr, orig))

    def install(self):
        for owner, attr, name, layer in SPANS:
            self._patch(owner, attr,
                        lambda fn, n=name, l=layer: self._span_wrapper(fn, n, l))
        for owner, attr, counter in COUNTERS:
            self._patch(owner, attr,
                        lambda fn, c=counter: self._counter_wrapper(fn, c))
        return self

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)
        self.spans[0].end = self.clock()

    # -- reduction ----------------------------------------------------------

    def layers(self):
        """Per-layer metrics of everything recorded since install()."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans[1:]:
            children[s.parent].append(s)

        def ancestors(s):
            while s.parent is not None:
                s = spans[s.parent]
                yield s

        def subtree(s):
            todo = [s]
            while todo:
                t = todo.pop()
                yield t
                todo.extend(children[t.sid])

        def inclusive(s, counter):
            return sum(t.counts[counter] for t in subtree(s))

        def top(name):
            """Spans of `name` not nested in another span of the same name."""
            return [s for s in spans if s.name == name
                    and not any(a.name == name for a in ancestors(s))]

        def dur(ss):
            return sum(s.end - s.start for s in ss)

        def matvecs(name):
            return sum(inclusive(s, "apply_h") for s in top(name))

        total_counts = defaultdict(int)
        total_times = defaultdict(float)
        for s in spans:
            for k, v in s.counts.items():
                total_counts[k] += v
            for k, v in s.times.items():
                total_times[k] += v

        self_s = defaultdict(float)
        dense_s = defaultdict(float)
        for s in spans[1:]:
            self_s[s.layer] += (s.end - s.start) - dur(children[s.sid])
            if s.layer == "dense" and not any(a.layer == "dense" for a in ancestors(s)):
                owner = next((a.layer for a in ancestors(s)
                              if a.layer in PROGRAM_LAYERS), "benchmark")
                dense_s[owner] += s.end - s.start

        mp = top("variational.mountain_pass_solve")
        string_iters = sum(s.extra.get("string_iters", 0) for s in mp)
        mp_energy = sum(inclusive(s, "energy") for s in mp)
        sd = top("choquard.selfdual_minimize")
        sd_iters = sum(s.extra.get("selfdual_iters", 0) for s in sd)
        sd_solves = sum(sum(1 for t in subtree(s) if t.name == "choquard.solve_a")
                        for s in sd)
        eig = top("spectral.eigendecompose")
        io = top("grid.save_field") + top("grid.load_field")
        newton = top("variational.newton_solve")
        gap_unconverged = sum(
            t.extra.get("unconverged", 0)
            for s in top("spectral.gap_delta") for t in subtree(s))

        return {
            "grid.fft_calls": total_counts["fft"],
            "grid.fft_s": total_times["fft"],
            "grid.lap_multiplier_builds": total_counts["lap_multiplier"],
            "grid.convolve_calls": total_counts["convolve"],
            "grid.convolve_s": total_times["convolve"],
            "grid.io_bytes": sum(s.extra.get("bytes", 0) for s in io),
            "grid.io_s": dur(io),
            "noise.sample_s": dur(top("noise.sample_white_noise")),
            "operator.init_s": dur(top("operator.init")),
            "operator.init_matvecs": matvecs("operator.init"),
            "operator.apply_h_calls": total_counts["apply_h"],
            "operator.apply_h_s": total_times["apply_h"],
            "operator.resolvent_calls": len(top("operator.resolvent_solve")),
            "operator.resolvent_matvecs": matvecs("operator.resolvent_solve"),
            "operator.resolvent_s": dur(top("operator.resolvent_solve")),
            "operator.heat_apply_calls": len(top("operator.heat_apply")),
            "operator.heat_matvecs": matvecs("operator.heat_apply"),
            "operator.heat_apply_s": dur(top("operator.heat_apply")),
            "operator.dense_s": dense_s["operator"],
            "operator.self_s": self_s["operator"],
            "spectral.dense_s": dense_s["spectral"],
            "spectral.eigendecompose_s": dur(eig),
            "spectral.eigendecompose_matvecs": matvecs("spectral.eigendecompose"),
            "spectral.gap_delta_s": dur(top("spectral.gap_delta")),
            "spectral.gap_delta_matvecs": matvecs("spectral.gap_delta"),
            "spectral.gap_delta_unconverged": gap_unconverged,
            "spectral.form_bound_s": dur(top("spectral.form_bound_constant")),
            "spectral.kato_heat_s": dur(top("spectral.kato_modulus_heat")),
            "spectral.eig_residual_max": max(
                (s.extra["residual_max"] for s in eig), default=0.0),
            "spectral.self_s": self_s["spectral"],
            "variational.dense_s": dense_s["variational"],
            "variational.mountain_pass_s": dur(mp),
            "variational.string_iters": string_iters,
            "variational.energy_calls": total_counts["energy"],
            "variational.energy_s": total_times["energy"],
            "variational.energy_calls_per_iter": (
                mp_energy / string_iters if string_iters else 0.0),
            "variational.newton_calls": len(newton),
            "variational.newton_iters": sum(s.extra.get("newton_iters", 0)
                                            for s in newton),
            "variational.newton_s": dur(newton),
            "variational.phi_level": next(
                (s.extra["phi"] for s in reversed(mp) if "phi" in s.extra), 0.0),
            "variational.self_s": self_s["variational"],
            "choquard.selfdual_iters": sd_iters,
            "choquard.solve_a_calls": len(top("choquard.solve_a")),
            "choquard.solve_a_matvecs": matvecs("choquard.solve_a"),
            "choquard.solve_a_s": dur(top("choquard.solve_a")),
            "choquard.solve_a_per_iter": sd_solves / sd_iters if sd_iters else 0.0,
            "choquard.self_s": self_s["choquard"],
            "harness.run_s": dur(top("harness.run")),
            "harness.self_s": self_s["harness"],
        }
