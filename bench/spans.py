"""Layer spans recorded from outside the package.

The package imports with ``from .x import y``, so one function is reachable
through several module bindings (``gatedecomp.sandwich.complete_isometry``
is the same object as ``gatedecomp.matcore.complete_isometry``).  A
`Tracer` rebinds every binding of each traced function in every
``gatedecomp`` module, plus the defining module, to a wrapper that records a
span ``[name, start, end, parent]``.  Calls made inside a module go through
its globals, so recursive and same-module calls are recorded too.
`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "gatedecomp"


@dataclass(frozen=True)
class Layer:
    """One traced boundary: spans named ``name`` around ``owner.attr``.

    ``note(counters, args, kwargs, result)`` adds counts measured at the
    boundary, such as bytes written or the size of the work done.
    """

    name: str
    owner: str
    attr: str
    note: Callable | None = None


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def bindings(self, layer: Layer):
        """Every (namespace, name) through which ``layer``'s function is called."""
        original = getattr(sys.modules[layer.owner], layer.attr)
        found = [(sys.modules[layer.owner], layer.attr)]
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) not in found:
                    found.append((mod, key))
        return original, found

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            original, where = self.bindings(layer)
            wrapped = self._wrap(layer, original)
            for ns, key in where:
                self._bindings.append((ns, key, original))
                setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._bindings):
            setattr(ns, key, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, layer: Layer, fn):
        name, note = layer.name, layer.note

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                note(self.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """Span opened by the harness itself; layer spans nest under it."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time is span minus child spans."""
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return {name: (calls[name], own[name]) for name in calls}

