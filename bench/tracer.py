"""Spans around magweyl's layers, recorded from outside the program.

The tracer wraps public functions of magweyl's modules, the
``SampledSymbol.values`` property and the ``scipy.linalg`` calls magweyl
makes (as the pseudo-layer ``lapack``).  Each call records a span: name,
start, end and the span that caused it.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

``from .quantize import quantize`` copies the function into ``cli``,
``inversion``, ``spectral`` and ``moyal``, and into the package, where the
attribute ``magweyl.quantize`` is that function rather than the submodule.
So modules are reached through :func:`importlib.import_module`, and every
module attribute bound to a wrapped function is patched, not just the one
in the defining module.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "expressions", "grid", "inversion", "magnetics", "moyal",
           "quantize", "spectral", "symbols")


def _circulation_points(args, kwargs, result):
    # endpoint pairs x quadrature nodes, from the argument shapes
    from magweyl.magnetics import DEFAULT_QUAD
    quad = args[3] if len(args) > 3 else kwargs.get("quad", DEFAULT_QUAD)
    pairs = np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))[:-1]
    return {"points": int(np.prod(pairs)) * quad.order}


def _gauge(args, kwargs, result):
    # a command holds its gauge objects until it returns, so within one op
    # distinct ids are distinct gauges
    return {"gauge": id(args[0] if args else kwargs["A"])}


def _terms(args, kwargs, result):
    return {"terms": result.terms}


def _order(args, kwargs, result):
    return {"n": int(np.shape(args[0])[0])}


# layer span name -> (module, function, attributes taken from the call)
FUNCTIONS = {
    "cli.run": ("cli", "run", None),
    "expressions.evaluate": ("expressions", "evaluate", None),
    "expressions.parse_expression": ("expressions", "parse_expression", None),
    "magnetics.circulation": ("magnetics", "circulation", _circulation_points),
    "magnetics.omega_cocycle": ("magnetics", "omega_cocycle", None),
    "magnetics.transversal_gauge": ("magnetics", "transversal_gauge", None),
    "symbols.is_elliptic": ("symbols", "is_elliptic", None),
    "quantize.circulation_matrix": ("quantize", "circulation_matrix", _gauge),
    "quantize.quantize": ("quantize", "quantize", None),
    "quantize.dequantize": ("quantize", "dequantize", None),
    "inversion.neumann_invert": ("inversion", "neumann_invert", _terms),
    "inversion.inversion_residual": ("inversion", "inversion_residual", None),
    "spectral.spectrum": ("spectral", "spectrum", None),
}
LAPACK = {"lapack.eigh": ("eigh", _order), "lapack.svdvals": ("svdvals", None)}
VALUES_SPAN = "quantize.SampledSymbol.values"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class _Linalg:
    """Stands in for ``scipy.linalg`` inside a magweyl module."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores magweyl."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's first span belongs to the main thread's open span
        # (circulation_matrix with threads > 1 waits there for its workers)
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    top.id if top is not None else None)
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def install(self):
        import scipy.linalg

        package = importlib.import_module("magweyl")
        modules = {m: importlib.import_module(f"magweyl.{m}") for m in MODULES}
        targets = [package, *modules.values()]
        for name, (mod, attr, attrs) in FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            traced = self._wrap(name, original, attrs)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patch(target, key, traced)
        linalg = _Linalg(scipy.linalg, {
            attr: self._wrap(name, getattr(scipy.linalg, attr), attrs)
            for name, (attr, attrs) in LAPACK.items()})
        for target in modules.values():
            for key, value in list(vars(target).items()):
                if value is scipy.linalg:
                    self._patch(target, key, linalg)
        cls = modules["quantize"].SampledSymbol
        prop = vars(cls)["values"]
        self._patch(cls, "values", property(self._wrap(VALUES_SPAN, prop.fget)))

    def uninstall(self):
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)


# ---------------------------------------------------------------------------
# self time and per-op layer figures
# ---------------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def layer_figures(spans, wall_s: float) -> dict:
    """Per-layer figures of one op from the spans it recorded."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attrs = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        for key, value in s.attrs.items():
            attrs[s.name, key].append(value)
    figures = {}
    for name in [*FUNCTIONS, *LAPACK, VALUES_SPAN]:
        figures[f"{name}.calls"] = calls[name]
        figures[f"{name}.self_s"] = self_s[name]
    figures["magnetics.circulation.points"] = sum(attrs["magnetics.circulation", "points"])
    figures["inversion.neumann_invert.terms"] = sum(attrs["inversion.neumann_invert", "terms"])
    figures["lapack.eigh.n"] = max(attrs["lapack.eigh", "n"], default=0)
    gauges = set(attrs["quantize.circulation_matrix", "gauge"])
    figures["quantize.circulation_matrix.repeat_ratio"] = (
        calls["quantize.circulation_matrix"] / len(gauges) if gauges else 0.0)
    inner = [(s.start, s.end) for s in spans if s.name != "cli.run"]
    lo = min((s.start for s in spans), default=0.0)
    figures["trace.coverage"] = _covered(inner, lo, float("inf")) / wall_s
    return figures


def dump(spans, origin: float) -> list:
    return [{"id": s.id, "name": s.name, "start": s.start - origin,
             "end": s.end - origin, "parent": s.parent, **s.attrs} for s in spans]
