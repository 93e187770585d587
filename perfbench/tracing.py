"""Spans around calls into morsekit's public functions, recorded from
outside the program.

`Tracer.install` replaces each traced function in every morsekit module
that holds it (``transform``, ``superfamily`` and ``cli`` bind ``core`` and
``props`` functions at import), so calls made inside the library are seen
as well as calls made by the benchmark.  A span records its layer, name,
start, end, parent span and an amount of work (frequencies evaluated,
integrand points, FFT points, coefficient bytes).  Spans stay in memory
until the pass ends.

A layer's self time is the wall time in which one of its spans is the
innermost open span.  Spans opened on a worker thread (the ``map`` thread
pool) take as parent the span open on the main thread, and an interval
covered by innermost spans of several threads is split evenly between
them, so the self times of all layers add up to the wall time of the
pass's root spans.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

MODULES = ("morsekit", "morsekit.core", "morsekit.props", "morsekit.superfamily",
           "morsekit.transform", "morsekit.cli")

ROOT = "bench"

# layer -> (defining module, public function names)
LAYERS = {
    "core.spectrum": ("morsekit.core", ("eval_spectrum", "eval_rescaled_spectrum")),
    "props.closed_form": (
        "morsekit.props",
        ("sigma_t", "sigma_omega", "heisenberg_area", "skewness_freq"),
    ),
    "props.quadrature": ("morsekit.props", ("quadrature_integral",)),
    "superfamily": ("morsekit.superfamily", None),  # every public function
    "transform.scale_grid": ("morsekit.transform", ("scale_grid",)),
    "transform": ("morsekit.transform", ("transform",)),
    "cli": ("morsekit.cli", ("main",)),
}
SELF_LAYERS = (ROOT, "cli", "superfamily", "props.quadrature", "props.closed_form",
               "core.spectrum", "transform.scale_grid", "transform", "transform.fft")


class Span:
    __slots__ = ("layer", "name", "t0", "t1", "parent", "amount")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.amount = 0
        self.t0 = self.t1 = 0.0


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # module name -> module object
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _open(self, layer: str, name: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = Span(layer, name, parent)
        self.spans.append(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return stack, span

    def _close(self, stack: list[Span], span: Span):
        span.t1 = time.perf_counter()
        stack.pop()

    def root(self, fn, *args, **kwargs):
        """Call fn inside a root span of the benchmark's own layer."""
        stack, span = self._open(ROOT, getattr(fn, "__name__", "call"))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(stack, span)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, amount=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, span = tracer._open(layer, fn.__name__)
            try:
                if amount is None:
                    return fn(*args, **kwargs)
                return amount(span, fn, args, kwargs)
            finally:
                tracer._close(stack, span)

        return traced

    def _replace(self, original, replacement):
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, replacement)

    def install(self):
        for layer, (modname, names) in LAYERS.items():
            mod = self.modules[modname]
            if names is None:
                names = [n for n in mod.__all__
                         if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]
            for name in names:
                original = getattr(mod, name)
                self._replace(original, self._wrap(original, layer, _AMOUNTS.get(name)))
        props = self.modules["morsekit.props"]
        # QUADPACK fallback of the quadrature oracle, counted as a child span
        self._replace(props.quad, self._wrap(props.quad, "props.quadrature"))
        # numpy as transform sees it: FFT calls become transform.fft spans
        tmod = self.modules["morsekit.transform"]
        fft = _Proxy(np.fft, {n: self._wrap(getattr(np.fft, n), "transform.fft", _fft_points)
                              for n in ("fft", "ifft")})
        self._restore.append((tmod, "np", tmod.np))
        tmod.np = _Proxy(np, {"fft": fft})

    def uninstall(self):
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()


class _Proxy:
    """A module stand-in that overrides some attributes."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _spectrum_points(span, fn, args, kwargs):
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    span.amount = int(np.size(omega))
    return fn(*args, **kwargs)


def _integrand_points(span, fn, args, kwargs):
    f = args[0] if args else kwargs.pop("f")
    rest = args[1:] if args else ()

    def counted(x):
        span.amount += int(np.size(x))
        return f(x)

    return fn(counted, *rest, **kwargs)


def _fft_points(span, fn, args, kwargs):
    span.amount = int(np.size(args[0]))
    return fn(*args, **kwargs)


def _coeff_bytes(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.amount = int(result.coefficients.nbytes)
    return result


def _fit_evaluations(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    grid = (args[0] if args else kwargs.get("grid")) or fn.__globals__["BesselFitGrid"]()
    scan = grid.n_beta * grid.n_gamma
    # amount packs (grid-scan evaluations, refinement evaluations)
    span.amount = (scan, len(result.grid_trace) - scan)
    return result


_AMOUNTS = {
    "eval_spectrum": _spectrum_points,
    "eval_rescaled_spectrum": _spectrum_points,
    "quadrature_integral": _integrand_points,
    "transform": _coeff_bytes,
    "bessel_fit": _fit_evaluations,
}


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Wall time per layer in which that layer's span is innermost."""
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent)) if s.parent is not None else None for s in spans]
    events = []
    for i, s in enumerate(spans):
        events.append((s.t0, 1, i))
        events.append((s.t1, 0, i))
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    acc = dict.fromkeys(SELF_LAYERS, 0.0)
    prev = None
    for t, starting, i in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for j in leaves:
                acc[spans[j].layer] += share
        prev = t
        p = parent[i]
        if starting:
            is_open[i] = True
            leaves.add(i)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return acc


def counts(spans: list[Span]) -> dict[str, int]:
    """Calls and work counted at the layer boundaries.  A call counts once
    at the outermost span of its layer, so a public function calling another
    of the same layer is one call."""
    out = {
        "core.spectrum.calls": 0,
        "core.spectrum.points": 0,
        "props.closed_form.calls": 0,
        "props.quadrature.calls": 0,
        "props.quadrature.integrand_points": 0,
        "props.quadrature.fallback_calls": 0,
        "superfamily.fit_evaluations": 0,
        "superfamily.refine_evaluations": 0,
        "transform.fft_points": 0,
        "transform.coeff_bytes": 0,
        "trace.spans": len(spans),
    }
    for s in spans:
        outer = s.parent is None or s.parent.layer != s.layer
        if s.layer == "core.spectrum" and outer:
            out["core.spectrum.calls"] += 1
            out["core.spectrum.points"] += s.amount
        elif s.layer == "props.closed_form" and outer:
            out["props.closed_form.calls"] += 1
        elif s.layer == "props.quadrature":
            if s.name == "quad":
                out["props.quadrature.fallback_calls"] += 1
            else:
                out["props.quadrature.calls"] += 1
                out["props.quadrature.integrand_points"] += s.amount
        elif s.layer == "superfamily" and s.name == "bessel_fit":
            out["superfamily.fit_evaluations"] += s.amount[0]
            out["superfamily.refine_evaluations"] += s.amount[1]
        elif s.layer == "transform.fft":
            out["transform.fft_points"] += s.amount
        elif s.layer == "transform":
            out["transform.coeff_bytes"] += s.amount
    return out


def root_time(spans: list[Span]) -> float:
    return sum(s.t1 - s.t0 for s in spans if s.parent is None)
