"""In-memory spans recorded from outside the package, by wrapping public names.

Each span adds its duration and its self time to its layer's totals as it
ends.  Self time is the duration minus the time covered by its direct child
spans.  A call into a layer from inside the same layer opens no new span, so
no time is counted twice.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.totals: dict[str, dict[str, float]] = {}
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.uncountable: set[tuple[str, str]] = set()
        self._stack: list[list] = []  # open spans: [layer, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self.uncountable.clear()
        self._stack.clear()

    def _begin(self, layer: str):
        if not self.enabled or (self._stack and self._stack[-1][0] == layer):
            return None
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _end(self, token) -> None:
        frame, start = token
        duration = perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        agg = self.totals.setdefault(frame[0], {"s": 0.0, "calls": 0, "self_s": 0.0})
        agg["s"] += duration
        agg["calls"] += 1
        agg["self_s"] += duration - frame[1]

    @contextmanager
    def span(self, layer: str):
        token = self._begin(layer)
        try:
            yield
        finally:
            if token is not None:
                self._end(token)

    def wrap(self, fn, layer: str, count: str | None = None, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._begin(layer)
            if token is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(token)
            if count is not None:
                try:
                    self.counts[(layer, count)] += int(counter(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.uncountable.add((layer, count))
            return result

        return traced

    def install(self, wraps) -> set[str]:
        """Replace each listed public name by a traced wrapper and start recording.

        Returns the layers none of whose names could be found.
        """
        found: set[str] = set()
        wanted: set[str] = set()
        for w in wraps:
            wanted.add(w.layer)
            try:
                module = importlib.import_module(w.module)
            except ImportError:
                continue
            fn = getattr(module, w.attr, None)
            if not callable(fn):
                continue
            self._restore.append((module, w.attr, fn))
            setattr(module, w.attr, self.wrap(fn, w.layer, w.count, w.counter))
            found.add(w.layer)
        self.enabled = True
        return wanted - found

    def uninstall(self) -> None:
        """Stop recording and put the original functions back."""
        self.enabled = False
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: total seconds, calls, self seconds and extra counts."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "self_s": 0.0}
        )
        out.update((layer, dict(agg)) for layer, agg in self.totals.items())
        for (layer, count), value in self.counts.items():
            out[layer][count] = value
        for layer, count in self.uncountable:
            out[layer][count] = None
        return dict(out)
