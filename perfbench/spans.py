"""Spans around the public calls of each ``thinfilm`` module.

The tracer wraps functions, methods and properties from outside the package:
nothing in ``src`` changes, and a process that never calls ``install`` runs
the package untouched. Each call records one span (name, start, end, parent,
and the grid size for stencil calls) in memory; self time is a span's duration
minus the durations of its direct children.
"""

import functools
import json
import sys
import time

import numpy as np

# (module, attribute, span name). Properties and methods are named
# "Class.member"; both coordinate properties share one span name.
TRACED = (
    ("stencils", "fd_weights", "stencils.fd_weights"),
    ("stencils", "apply_derivative", "stencils.apply_derivative"),
    ("grid", "LogGrid.s", "grid.LogGrid.coords"),
    ("grid", "LogGrid.x", "grid.LogGrid.coords"),
    ("grid", "extract_coefficients", "grid.extract_coefficients"),
    ("grid", "weighted_norm", "grid.weighted_norm"),
    ("grid", "composite_init_norm", "grid.composite_init_norm"),
    ("nonlinear", "eval_nonlinearity", "nonlinear.eval_nonlinearity"),
    ("nonlinear", "lipschitz_guard", "nonlinear.lipschitz_guard"),
    ("nonlinear", "contact_line_shift", "nonlinear.contact_line_shift"),
    ("nonlinear", "reconstruct", "nonlinear.reconstruct"),
    ("nonlinear", "run_nonlinear", "nonlinear.run_nonlinear"),
    ("resolvent", "assemble", "resolvent.assemble"),
    ("resolvent", "Factorization.__init__", "resolvent.factor_build"),
    ("resolvent", "Factorization.solve_values", "resolvent.factor_solve"),
    ("resolvent", "interior_residual", "resolvent.interior_residual"),
    ("evolution", "run", "evolution.run"),
    ("evolution", "leading_coefficients", "evolution.leading_coefficients"),
    ("evolution", "tilde_energies", "evolution.tilde_energies"),
    ("elliptic", "apply_S", "elliptic.apply_S"),
    ("polyops", "apply_operator", "polyops.apply_operator"),
    ("validation", "tfe_residual", "validation.tfe_residual"),
    ("cli", "main", "cli.main"),
    ("config", "load", "config.load"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))
# root span of one timed call; its self time is spent outside every traced call
ROOT = "untraced"
# Spans that also record the size of their first argument (grid nodes).
SIZED = {"stencils.apply_derivative"}


class Tracer:
    """In-memory span recorder. Single-threaded: one stack of open spans."""

    def __init__(self):
        self.names = [ROOT, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans = []   # (name id, start, end, parent index or -1, size)
        self._open = []
        self._installed = []  # (owner, attribute, original value)

    def span(self, name, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        name_id = self._ids[name]
        sized = name in SIZED
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, len(args[0]) if sized else 0)

        return traced

    def install(self, package="thinfilm"):
        """Wrap every entry of TRACED at each place it is bound.

        Modules that imported a function by name (``nonlinear`` takes
        ``leading_coefficients`` and ``tilde_energies`` from ``evolution``,
        and the package re-exports grid functions) hold their own reference,
        so every module of the package is searched for the original object.
        """
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for mod_name, attr, name in TRACED:
            module = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, property):
                    self._replace(cls, member, property(self.span(name, original.fget)))
                else:
                    self._replace(cls, member, self.span(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)

    def _replace(self, owner, key, value):
        self._installed.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        """Put every original function, method and property back."""
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    def run(self, fn):
        """Call ``fn`` inside a root span; returns (result, first, last) span indices."""
        first = len(self.spans)
        result = self.span(ROOT, fn)()
        return result, first, len(self.spans)

    def summary(self, first, last):
        """(calls, self seconds, summed sizes) per span name over spans[first:last]."""
        rows = np.array(self.spans[first:last], dtype=float)
        ids = rows[:, 0].astype(int)
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(int) - first
        child = np.zeros(len(rows))
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        self_s = np.bincount(ids, weights=dur - child, minlength=size)
        sizes = np.bincount(ids, weights=rows[:, 4], minlength=size)
        return {name: (int(calls[i]), float(self_s[i]), int(sizes[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path):
        """Write every span as [name id, start, end, parent, size]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "size"],
                       "spans": self.spans}, fh)
