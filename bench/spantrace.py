"""Span tracing of diffhom's layers from outside the package.

A Tracer replaces the public functions and hot methods of each layer module
with wrappers that open a span per call, then puts every original object
back.  A function imported elsewhere with ``from .x import y`` is bound in
several module namespaces; every binding of the same object is patched, so
calls through any of them are seen.

Spans are kept on a stack.  Each span records its name, start, end and
parent; when it closes, its self time (duration minus the time covered by its
children) is added to the per-name totals.  Counters are taken at the same
boundaries.  Work the tracer does itself after a call (counters that walk a
result) is charged to neither the span nor its parent.
"""

from __future__ import annotations

import inspect
import sys
import types
from math import comb
from time import perf_counter

from diffhom import catalog, harmonic, jets, linalg, polynomials, spans, suite, tensors
from diffhom.linalg import Echelon
from diffhom.polynomials import Poly

# Layers whose public module-level functions are all wrapped, one span each.
GENERIC_LAYERS = (linalg, spans, jets, tensors, harmonic, catalog)

# (owner, attribute, span name) wrapped in addition to the generic layers.
# sub, pow and scale are not reported by name; their spans keep polynomial
# arithmetic in the polynomials share instead of the caller's layer.
EXPLICIT = (
    (Poly, "substitute", "polynomials.substitute"),
    (Poly, "__mul__", "polynomials.mul"),
    (Poly, "__add__", "polynomials.add"),
    (Poly, "__sub__", "polynomials.sub"),
    (Poly, "__pow__", "polynomials.pow"),
    (Poly, "scale", "polynomials.scale"),
    (Poly, "render", "polynomials.render"),
    (polynomials, "determinant", "polynomials.determinant"),
    (Echelon, "insert", "linalg.insert"),
    (Echelon, "reduce", "linalg.reduce"),
    (Echelon, "contains", "linalg.contains"),
    (suite, "run_suite", "suite.run_suite"),
    (suite, "export", "suite.export"),
)

# Span names reported under another name.
RENAME = {"harmonic.quotient_dimension": "harmonic.quotient"}

# Calls whose arguments are counted for repeats (`.distinct`).
DISTINCT = frozenset(
    (
        "jets.diff_homog_basis",
        "catalog.top_order_nested_indices",
        "catalog.build_catalog",
        "catalog.verify_quotient_basis",
    )
)

LAYERS = ("polynomials", "linalg", "spans", "jets", "tensors", "harmonic", "catalog", "suite")


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def _arg_key(signature: inspect.Signature, args, kwargs):
    """The call's arguments by parameter name, defaults applied, caps left out.

    Every workload runs with the default caps, which a caller may pass
    explicitly or leave as None; both are the same input.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple((name, value) for name, value in bound.arguments.items() if name != "caps")


class Span:
    """One traced call: name, start, end, parent, and its children's time."""

    __slots__ = ("name", "start", "end", "parent", "child_s", "outer", "repeat")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.outer = False
        self.repeat = False
        self.start = self.end = 0.0


class Tracer:
    """Patch diffhom's layers, record spans and counters, restore on exit."""

    def __init__(self):
        self.stack: list[Span] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.seen: dict[str, set] = {name: set() for name in DISTINCT}
        self.counters: dict[str, float] = {
            "linalg.insert.dependent": 0,
            "linalg.fill_nnz": 0,
            "linalg.max_coeff_bits": 0,
            "jets.diff_homog_basis.columns": 0,
            "tensors.invariant_tensor_basis.box_max": 0,
        }
        self.inclusive_s = {layer: 0.0 for layer in LAYERS}
        self._depth = {layer: 0 for layer in LAYERS}
        self.repeated_s = 0.0
        self._in_repeat = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def targets(self) -> list[tuple[object, str, str, object]]:
        """Every (owner, attribute, span name, original) this tracer wraps."""
        out = [(owner, attr, name, vars(owner)[attr]) for owner, attr, name in EXPLICIT]
        for module in GENERIC_LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    out.append((module, attr, RENAME.get(name, name), value))
        return out

    def install(self) -> None:
        modules = list(diffhom_modules().values())
        for owner, attr, name, original in self.targets():
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        layer = _module_of(name)
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if name in DISTINCT else None

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = Span(name, stack[-1] if stack else None)
            depth = tracer._depth
            span.outer = not depth[layer]
            depth[layer] += 1
            if signature is not None:
                key = _arg_key(signature, args, kwargs)
                seen = tracer.seen[name]
                if key in seen and not tracer._in_repeat:
                    span.repeat = True
                    tracer._in_repeat += 1
                seen.add(key)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = perf_counter()
                stack.pop()
                tracer._close(span, 0.0)
                raise
            span.end = perf_counter()
            stack.pop()
            harness = 0.0
            if hook is not None:
                hook(tracer, args, kwargs, result)
                harness = perf_counter() - span.end
            tracer._close(span, harness)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _close(self, span: Span, harness: float) -> None:
        duration = span.end - span.start
        name = span.name
        layer = _module_of(name)
        self._depth[layer] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - span.child_s
        if span.parent is not None:
            span.parent.child_s += duration + harness
        if span.outer:
            self.inclusive_s[layer] += duration
        if span.repeat:
            self._in_repeat -= 1
            self.repeated_s += duration

    # -- summaries -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[_module_of(name)] += value
        return out

    def distinct(self, name: str) -> int:
        return len(self.seen[name])


def diffhom_modules() -> dict[str, types.ModuleType]:
    """The diffhom package and its submodules, by name."""
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "diffhom" or name.startswith("diffhom."))
    }


# -- counters taken at span boundaries --------------------------------------


def _insert_hook(tracer: Tracer, args, kwargs, result) -> None:
    if result is None:
        tracer.counters["linalg.insert.dependent"] += 1


def _echelon_hook(tracer: Tracer, args, kwargs, result) -> None:
    counters = tracer.counters
    bits = counters["linalg.max_coeff_bits"]
    nnz = 0
    for row in result.pivots.values():
        nnz += len(row)
        for v in row.values():
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    counters["linalg.fill_nnz"] += nnz
    counters["linalg.max_coeff_bits"] = bits


def _diff_homog_hook(tracer: Tracer, args, kwargs, result) -> None:
    ctx = result.context
    nvars = (ctx.n + 1) * (ctx.k + 1)
    tracer.counters["jets.diff_homog_basis.columns"] += comb(nvars + ctx.d - 1, ctx.d)


def _tensor_basis_hook(tracer: Tracer, args, kwargs, result) -> None:
    k = kwargs.get("k", args[0] if args else None)
    d = kwargs.get("d", args[1] if len(args) > 1 else None)
    box = (k + 1) ** d
    if box > tracer.counters["tensors.invariant_tensor_basis.box_max"]:
        tracer.counters["tensors.invariant_tensor_basis.box_max"] = box


_HOOKS = {
    "linalg.insert": _insert_hook,
    "linalg.echelon_of": _echelon_hook,
    "jets.diff_homog_basis": _diff_homog_hook,
    "tensors.invariant_tensor_basis": _tensor_basis_hook,
}
