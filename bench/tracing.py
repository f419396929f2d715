"""Spans recorded from outside the program, by wrapping its public
functions for the length of one traced pass.

A span is (name, start, end, parent): the parent is the innermost span
open when the call began, so nested calls form a tree per request. Spans
live in flat arrays until the pass ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Methods of classes traced alongside module functions: (module, class,
# method, span name). __rmul__ is the same operation as __mul__.
TRACED_METHODS = (
    ("polynomial", "Poly", "__mul__", "Poly.mul"),
    ("polynomial", "Poly", "__rmul__", "Poly.mul"),
    ("polynomial", "Poly", "divide_exact", "Poly.divide_exact"),
    ("polynomial", "Poly", "evaluate", "Poly.evaluate"),
    ("polynomial", "Poly", "rewrite", "Poly.rewrite"),
    ("polynomial", "Poly", "substitute", "Poly.substitute"),
)

Hook = Callable[["Tracer", tuple, object], None]


def public_functions(module) -> List[str]:
    """Names of the functions a module defines and does not mark private."""
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counters: Counter = Counter()
        self.distinct: Dict[str, set] = {}
        self._installed: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        original = vars(owner)[attr]
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, modules: Dict[str, object],
                  hooks: Dict[str, Hook]) -> Iterator["Tracer"]:
        """Wrap every public function of each module (keyed by layer
        name) and the methods in TRACED_METHODS; restore on exit."""
        try:
            for layer, module in modules.items():
                for fname in public_functions(module):
                    span = "%s.%s" % (layer, fname)
                    self.wrap(module, fname, span, hooks.get(span))
            for layer, cls, method, short in TRACED_METHODS:
                span = "%s.%s" % (layer, short)
                self.wrap(getattr(modules[layer], cls), method, span,
                          hooks.get(span))
            yield self
        finally:
            self.restore()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out
