"""Span tracing around the public functions of each seqheight layer.

The tracer wraps functions and methods from outside the program: it swaps
the attribute in every seqheight module namespace that holds it, so calls
made through `from .x import f` bindings are seen too.  Two kinds of
wrapper exist:

* span: records (id, name, start, end, parent id, op id) in memory.  The
  parent is the innermost open span of the calling thread, or, in a worker
  thread with no open span, the innermost open span of the main thread.
* leaf: for hot kernels called thousands of times per op
  (`CheckedMap.apply`, `ComplexLiftMap.evaluate`, `preimages_one_step`);
  only call counts and busy time are kept, per name and per enclosing span,
  so memory stays flat while self times remain exact.

Counts that describe the work (bit lengths, stop rules, batch sizes) are
derived from arguments and returned values only; exact payloads are never
converted to text, since a depth-18 orbit coordinate is past Python's
int-to-str digit limit.  Work that needs more than a bit length is queued
and computed after the traced phase, outside the measured op time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans, kernel counters and patches of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.leaf_under: dict[int | None, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.peak: dict[str, int] = defaultdict(int)
        self.deferred: list = []
        self.enabled = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main: list[int] = []
        self._local.stack = self._main
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else None

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(tracer, args, result, exc) runs on exit."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op))
                if after is not None:
                    with tracer._lock:
                        after(tracer, args, result, exc)

        return wrapper

    def leaf(self, name: str, fn, after=None):
        """Wrap a hot kernel: count calls and busy time, no span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent = tracer._parent(tracer._stack())
            with tracer._lock:
                tracer.leaf_calls[name] += 1
                tracer.leaf_time[name] += dt
                tracer.leaf_under[parent] += dt
                if after is not None:
                    after(tracer, args, result)
            return result

        return wrapper

    def root(self, op_index: int):
        """Context manager for the span of one whole CLI op."""
        self.op = op_index
        return _Root(self)

    # -- installing ------------------------------------------------------------

    def patch_function(self, module, attr: str, wrapper_factory) -> None:
        """Replace module.attr, and every seqheight binding of it, by a wrapper."""
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name == "seqheight" or name.startswith("seqheight."):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def patch_method(self, cls, attr: str, wrapper_factory) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_factory(original))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children and leaf time."""
        children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _ in self.spans:
            covered = 0.0
            end = t0
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, end), min(b, t1)
                if b > a:
                    covered += b - a
                    end = b
            out[sid] = max(0.0, (t1 - t0) - covered - self.leaf_under.get(sid, 0.0))
        return out

    def write(self, path) -> None:
        """Dump spans, then per-kernel totals, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "parent": parent,
                            "op": op,
                            "leaf_s": self.leaf_under.get(sid, 0.0),
                        }
                    )
                    + "\n"
                )
            for name in sorted(self.leaf_calls):
                fh.write(
                    json.dumps(
                        {
                            "leaf": name,
                            "calls": self.leaf_calls[name],
                            "seconds": self.leaf_time[name],
                        }
                    )
                    + "\n"
                )


class _Root:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.sid = next(t._ids)
        t._main.append(self.sid)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = perf_counter()
        t._main.pop()
        t.spans.append((self.sid, "cli", self.t0, t1, None, t.op))
        return False
