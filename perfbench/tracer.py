"""Spans around tenkit's public functions, recorded from outside the library.

install() wraps every public function of the layer modules and puts the
wrapper wherever a caller looks the name up: the defining module, every
tenkit module that imported the name (decomp binds svd, pinv and qr from
factor; network binds tensor_product and read_tensor) and the package
namespace. Spans stay in memory as (name, start, end, parent, note)
tuples; uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("core", "elementwise", "products", "factor", "network", "decomp", "io", "cli")
# Scalar helpers called once per entry written or per tensor built: a span
# around each would cost more than the work it times.
UNTRACED = {"io.format_float", "core.element_count"}


def _span_name(layer: str, fn_name: str):
    base = f"{layer}.{fn_name}"
    if base == "network.plan":
        # network.plan.exhaustive / network.plan.greedy / network.plan.given
        def name(args, kwargs):
            strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "exhaustive")
            return f"{base}.{strategy}" if isinstance(strategy, str) else f"{base}.given"

        return name
    return lambda args, kwargs: base


def _note(base: str):
    """What a span records beside its times, computed after the span ends."""
    if base in ("io.read_tensor", "io.write_tensor"):
        return lambda args, kwargs, result: os.path.getsize(args[0] if args else kwargs["path"])
    if base == "network.evaluate":
        return lambda args, kwargs, result: (args[1] if len(args) > 1 else kwargs["contraction"]).total_cost
    if base == "decomp.cp_als":
        return lambda args, kwargs, result: (args[0] if args else kwargs["x"]).order
    return None


class Tracer:
    def __init__(self, package: str = "tenkit"):
        self.package = package
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        name_of = _span_name(layer, fn.__name__)
        note_of = _note(f"{layer}.{fn.__name__}")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_of(args, kwargs), start, end, parent, None)
            if note_of is not None:
                spans[index] = spans[index][:4] + (note_of(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for fn_name in getattr(module, "__all__", ()):
                fn = getattr(module, fn_name)
                if inspect.isfunction(fn) and f"{layer}.{fn_name}" not in UNTRACED:
                    wrappers[fn] = self._wrap(layer, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(spans)]
