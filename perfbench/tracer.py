"""Outside-in tracing of the bkbundle layers.

``Tracer`` wraps the public functions and public methods (``__init__`` and
the arithmetic dunders included) of every layer module, and installs each
wrapper at every binding site: the defining module, every module that
imported the name with ``from .x import f``, and the package namespace.
Classes are shared objects, so their methods are patched once.  Callers
outside the package must look functions up through their module at call
time, or they keep calling the unwrapped original.

Every wrapper pushes onto one stack, so it can charge its inclusive time
to its parent and keep its self time (inclusive minus wrapped children).
Hot functions (``linalg``, ``fibers``, ``bundle``, ``measure`` and the
rest outside ``COARSE``) keep only aggregates: calls, inclusive and self
time.  Calls into the coarse layers also keep a full span (id, parent
span, request, name, start, end) in ``spans``, and a call entering a
coarse layer from outside adds to that layer's inclusive time.  Calls to
the names in ``PARENT_TRACKED`` are also counted per parent, and
observers read selected return values into named counters.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = (
    "linalg",
    "fibers",
    "bundle",
    "measure",
    "inversion",
    "spectrum",
    "representation",
    "gelfand_mazur",
    "verification",
    "sampling",
    "scenario",
    "cli",
)
COARSE = {"cli", "inversion", "spectrum", "representation", "gelfand_mazur", "verification"}
DUNDERS = {
    "__init__", "__call__", "__add__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__abs__", "__and__", "__or__",
}
PARENT_TRACKED = {"linalg.operator_norm", "bundle.Section.__mul__"}
PACKAGE = "bkbundle"


def _public_method(name: str) -> bool:
    return name in DUNDERS or not name.startswith("_")


class Tracer:
    """Install with ``with Tracer() as t:``; the wrappers come off on exit."""

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_incl: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._names: list[str] = [""]
        self._child: list[float] = [0.0]
        self._span_ids: list[int] = [-1]
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ---

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _targets(self):
        """(name, owner, attribute, original) for every function to wrap."""
        out = []
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for key, member in list(vars(obj).items()):
                        if _public_method(key) and isinstance(
                            member, (classmethod, types.FunctionType)
                        ):
                            out.append((f"{layer}.{obj.__name__}.{key}", obj, key, member))
                elif isinstance(obj, types.FunctionType):
                    out.append((f"{layer}.{attr}", module, attr, obj))
        return out

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        originals = {}
        for name, owner, attr, original in self._targets():
            if isinstance(original, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, original.__func__)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(name, original))
            else:
                originals[id(original)] = (original, self._wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        missed = self._stray_references(modules, originals)
        if missed:
            self.__exit__(None, None, None)
            raise RuntimeError(f"binding sites the tracer cannot patch: {missed}")
        return self

    @staticmethod
    def _stray_references(modules, originals) -> list[str]:
        """Module-level containers that still hold an unwrapped original."""
        missed = []
        for module in modules:
            for attr, value in vars(module).items():
                if isinstance(value, dict):
                    items = list(value.values())
                elif isinstance(value, (list, tuple)):
                    items = list(value)
                else:
                    continue
                if any(id(v) in originals and originals[id(v)][0] is v for v in items):
                    missed.append(f"{module.__name__}.{attr}")
        return missed

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # --- recording ---

    def start_request(self, index: int):
        self._request = index

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        names, child, clock = self._names, self._child, time.perf_counter
        observer = self.observers.get(name)
        edges = self.edges if name in PARENT_TRACKED else None

        if layer not in COARSE and observer is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if edges is not None:
                    edges[(names[-1], name)] += 1
                names.append(name)
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    names.pop()
                    inner = child.pop()
                    child[-1] += elapsed
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - inner

            return wrapper

        span_ids, spans, counters = self._span_ids, self.spans, self.counters
        layer_incl, prefix, coarse = self.layer_incl, layer + ".", layer in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if edges is not None:
                edges[(names[-1], name)] += 1
            entered = not names[-1].startswith(prefix)
            parent = span_ids[-1]
            span_id = len(spans)
            if coarse:
                spans.append(None)
                span_ids.append(span_id)
            names.append(name)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                names.pop()
                inner = child.pop()
                child[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if coarse:
                    span_ids.pop()
                    spans[span_id] = (span_id, parent, self._request, name, start, end)
                    if entered:
                        layer_incl[layer] += elapsed
            if observer is not None:
                observer(counters, args, result)
            return result

        return wrapper

    # --- summaries ---

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def incl(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((s[2] for k, s in self.stats.items() if k.startswith(prefix)), 0.0)

    def total_calls(self, names) -> int:
        return sum(self.calls(n) for n in names)
