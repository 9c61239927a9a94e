"""Span tracer for the relspin benchmark, applied from outside the package.

Each traced layer is a public function or method of relspin.  Installing
the tracer replaces it, in every loaded module namespace that bound it by
name (``field_data`` is bound in phase, dynamics, brackets and
expansion), with a wrapper that keeps a span stack: a span's self time
is its duration minus the time its child spans cover.  A layer whose
function no longer exists is left out rather than treated as an error,
so the tracer keeps working after a refactor merges or deletes layers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (modules to search, in order; attribute path)
LAYERS = {
    "fields.field_data": (("relspin.fields", "relspin.phase"), "field_data"),
    "phase.observable_grad": (("relspin.phase",), "Observable.grad"),
    "dynamics.dirac_rhs": (("relspin.dynamics",), "dirac_rhs"),
    "dynamics.project_state": (("relspin.dynamics",), "project_state"),
    "dynamics.integrate": (("relspin.dynamics",), "integrate"),
    "dynamics.channels": (("relspin.dynamics",), "Trajectory.channels"),
    "brackets.dirac_core": (("relspin.brackets",), "dirac_core"),
    "brackets.dirac_bracket": (("relspin.brackets",), "dirac_bracket"),
    "brackets.dirac_coefficients": (("relspin.brackets",),
                                    "dirac_coefficients"),
    "brackets.defining_property_report": (("relspin.brackets",),
                                          "defining_property_report"),
    "brackets.closed_vs_direct_report": (("relspin.brackets",),
                                         "closed_vs_direct_report"),
    "brackets.aux_table_report": (("relspin.brackets",), "aux_table_report"),
    "weyl.op_init": (("relspin.weyl",), "Op.__init__"),
    "weyl.op_mul": (("relspin.weyl",), "Op.__mul__"),
    "weyl.commutator": (("relspin.weyl",), "commutator"),
    "quantum.build_operators": (("relspin.quantum",), "build_operators"),
    "quantum.correspondence_report": (("relspin.quantum",),
                                      "correspondence_report"),
    "quantum.g_minus_one_residual": (("relspin.quantum",),
                                     "g_minus_one_residual"),
    "expansion.bracket_ladder": (("relspin.expansion",), "bracket_ladder"),
    "hydrogen.fine_structure_table": (("relspin.hydrogen",),
                                      "fine_structure_table"),
}


def _resolve(modules, path):
    """(owner, attribute, original) for the first module defining path."""
    for modname in modules:
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is not None and attr in vars(owner):
            return owner, attr, vars(owner)[attr]
    return None


def _projection_converged(constraint_residuals, args, kwargs, result):
    """1 when project_state returned a state on its own tolerance."""
    model = args[1] if len(args) > 1 else kwargs["model"]
    if result.spinless:
        return 1
    res = constraint_residuals(result, model)
    worst = max(abs(res[k]) for k in ("T2", "T3", "T4", "T5"))
    # project_state's default stopping tolerance
    return int(worst < 1e-14 * (1.0 + (model.m * model.c) ** 2))


# the one layer whose calls are also checked: how many projections converge
CONVERGED = "dynamics.project_state"


class Tracer:
    """Collects calls, total and self time per layer while installed."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.converged = None  # converged projections, when checked
        self._stack = []      # child time accumulated by each open span
        self._paused = False
        self._patches = []
        self.layers = []      # layers found in the installed package

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                # the check runs untraced and its time is not charged to
                # the caller's self time
                t1 = clock()
                self._paused = True
                try:
                    self.converged += hook(args, kwargs, result)
                finally:
                    self._paused = False
                if stack:
                    stack[-1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        originals = {}
        for name, (modules, path) in LAYERS.items():
            found = _resolve(modules, path)
            if found is None:
                continue
            owner, attr, fn = found
            hook = None
            if name == CONVERGED:
                helper = _resolve(("relspin.phase",), "constraint_residuals")
                if helper is not None:
                    hook = functools.partial(_projection_converged, helper[2])
                    self.converged = 0
            wrapper = self._wrap(name, fn, hook)
            self.layers.append(name)
            self.calls[name] = 0
            self.total[name] = 0.0
            self.self_time[name] = 0.0
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        # rebind every module-level alias of a wrapped function
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value))
                    namespace[key] = hit[1]
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def snapshot(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "converged": self.converged,
                "layers": list(self.layers)}

    def merge(self, snap):
        """Add the counts of another tracer, e.g. one in a child process."""
        for name in snap["layers"]:
            if name not in self.calls:
                self.layers.append(name)
                self.calls[name] = 0
                self.total[name] = 0.0
                self.self_time[name] = 0.0
            self.calls[name] += snap["calls"][name]
            self.total[name] += snap["total"][name]
            self.self_time[name] += snap["self"][name]
        if snap["converged"] is not None:
            self.converged = (self.converged or 0) + snap["converged"]

    def metrics(self):
        """<layer>.{calls,self_s,us_per_call} for every layer found."""
        out = {}
        for name in self.layers:
            n = self.calls[name]
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
            out[f"{name}.us_per_call"] = (
                1e6 * self.total[name] / n if n else 0.0, "us")
        if self.converged is not None:
            n = self.calls[CONVERGED]
            out[f"{CONVERGED}.converged_frac"] = (
                self.converged / n if n else 0.0, "ratio")
        return out
