"""In-memory span tracer that wraps the package's public functions.

The tracer patches module attributes only; no code of the package changes.
Each public function defined in one of ``LAYERS`` (plus the private names in
``PRIVATE``) is replaced by a wrapper wherever a package module holds it,
including names other modules bound with ``from .x import y`` at import
time (``bsde._normal_increments``, ``config.variance_curve``, ...).  Every
patched attribute is restored on exit.

Spans are ``[name, start_ns, end_ns, parent_index]`` with integer
``perf_counter_ns`` stamps, so self times are exact: each is non-negative
and together they add up to the root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "volterra_bsde"
LAYERS = ("config", "operators", "kernels", "simulate", "pde", "bsde", "cli")
# private functions traced as layer boundaries, under their name without "_"
PRIVATE = {"simulate": ("_normal_increments",)}
# counts taken from a traced function's return value
COUNTERS = {
    "pde.solve_semilinear_picard": ("pde.picard_sweeps", lambda r: r.iterations),
    "simulate.normal_increments": ("simulate.normal_increments.draws",
                                   lambda r: r.size),
}


def traced_functions():
    """``{span name: function}`` for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{attr.lstrip('_')}"] = obj
    return found


class Tracer:
    """Context manager: patch on enter, restore on exit, keep spans."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in traced_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                key, count = counter
                counts[key] = counts.get(key, 0) + int(count(result))
            return result

        return traced


def self_times_ns(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts):
    """Per-layer self seconds, inclusive seconds and calls per span name.

    Inclusive time of a name skips spans nested inside another span of the
    same name, so recursion is not counted twice.
    """
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, *_), own in zip(spans, self_times_ns(spans)):
        out[f"{name.split('.')[0]}.self_s"] += own / 1e9
    for name, start, end, parent in spans:
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start) / 1e9
    out.update(counts)
    return out
