"""Span tracer for the benchmark's traced passes.

Spans are taken from the benchmark's side only: either around calls the
benchmark makes itself, or by temporarily replacing a ``coflow`` function
in every ``coflow`` module namespace that binds it, so that callers which
look the name up at call time (the CLI, the sweep harness, the schedulers
calling each other) run through a wrapper. The package itself is never
edited, and nothing is patched during untraced passes.

A span is (pass id, span id, parent id, name, start, end). Its self time
is its duration minus the time covered by its children. Garbage-collector
pauses, seen through ``gc.callbacks``, are charged to the innermost open
span; they stay part of that span's self time and are also reported
separately per layer.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Open-span record fields.
_ID, _NAME, _START, _CHILD, _GC = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self.excluded_s = 0.0
        self.collections = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0, 0.0])

    def close(self) -> None:
        end = perf_counter()
        sid, name, start, child, gc_s = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[_CHILD] += end - start
        self.spans.append({
            "pass": self.pass_id,
            "id": sid,
            "parent": parent[_ID] if parent is not None else None,
            "name": name,
            "start": start,
            "end": end,
            "self": end - start - child,
            "gc": gc_s,
        })

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def parent_name(self) -> str | None:
        return self._stack[-1][_NAME] if self._stack else None

    def exclude(self, seconds: float) -> None:
        """Remove benchmark-side bookkeeping from the enclosing span's self
        time and from the traced pass time."""
        if self._stack:
            self._stack[-1][_CHILD] += seconds
        self.excluded_s += seconds

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_id += 1
        self.counts = {}
        self.excluded_s = 0.0
        self.collections = 0
        gc.callbacks.append(self._on_gc)

    def end_pass(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.collections += 1
        if self._stack:
            self._stack[-1][_GC] += perf_counter() - self._gc_start

    def pass_spans(self, pass_id: int) -> list[dict]:
        return [s for s in self.spans if s["pass"] == pass_id]

    # -- patching ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """A function that runs ``fn`` inside a span called ``name``.

        ``on_result(tracer, args, kwargs, result)`` records counts after
        the span has closed; its own time is excluded.
        """
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if on_result is not None:
                t0 = perf_counter()
                on_result(tracer, args, kwargs, result)
                tracer.exclude(perf_counter() - t0)
            return result

        return traced

    def patch(self, name: str, module, attr: str, on_result=None) -> None:
        """Route every ``coflow`` module's binding of ``module.attr``
        through a span called ``name``."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "coflow" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)


class NullTrace:
    """Stands in for a Tracer during untraced passes."""

    def span(self, name: str):
        return nullcontext()

    def count(self, key: str, value: int = 1) -> None:
        pass
