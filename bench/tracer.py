"""In-memory span tracer for the layers of ``adaptive_tomo``.

Tracing lives in the benchmark, not in the library.  ``Tracer.install``
replaces every public function, and every public method of a public class,
defined in one of the traced modules with a timing wrapper.  It does so at
every module namespace of the package that binds the same object, so a call
is recorded whichever import path the caller used:
``adaptive_tomo.protocols.mle`` and ``adaptive_tomo.estimation.mle`` are one
span, ``estimation.mle``.  ``Tracer.restore`` puts the original objects back.

Spans are aggregated in memory by (scope, parent span, span): call count,
inclusive time and self time.  Self time is a span's duration minus the time
covered by the spans it caused, tracked on a call stack.  The scope is set by
the benchmark around each campaign, so per-protocol costs stay apart.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("states", "measurement", "estimation", "protocols", "harness", "cli")


class SpanTotals:
    """Aggregate of every span that shares one (scope, parent, name) key."""

    __slots__ = ("calls", "total_s", "self_s", "flagged")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.flagged = 0


class Tracer:
    """Wraps the layer functions of ``package`` while installed.

    ``flags`` maps a span name to a predicate on the function's return value;
    the number of returns for which it holds is kept as ``flagged``.
    """

    def __init__(self, package: str, flags: dict[str, Callable[[object], bool]] | None = None):
        self.package = package
        self.flags = dict(flags or {})
        self.scope = ""
        self.spans: dict[tuple[str, str, str], SpanTotals] = defaultdict(SpanTotals)
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []

    def _targets(self) -> list[tuple[str, object, str, Callable]]:
        """(span name, owner, attribute, function) for every traced callable
        at its defining module or class."""
        found = []
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((f"{layer}.{name}", module, name, obj))
                elif inspect.isclass(obj):
                    for attr, fn in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            found.append((f"{layer}.{name}.{attr}", obj, attr, fn))
        return found

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            module for name, module in list(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        wrappers = {}
        for span, owner, attr, fn in self._targets():
            wrapper = self._wrap(span, fn)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, wrapper)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        flag = self.flags.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                totals = spans[(self.scope, parent, span)]
                totals.calls += 1
                totals.total_s += elapsed
                totals.self_s += elapsed - frame[1]
            if flag is not None and flag(result):
                totals.flagged += 1
            return result

        return traced

    def totals(self, span: str, scope: str | None = None) -> SpanTotals:
        """Sum of one span over parents, and over scopes unless one is given."""
        out = SpanTotals()
        for (s, _, name), t in self.spans.items():
            if name == span and (scope is None or s == scope):
                out.calls += t.calls
                out.total_s += t.total_s
                out.self_s += t.self_s
                out.flagged += t.flagged
        return out
