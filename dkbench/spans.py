"""In-memory spans recorded by timing wrappers around dialogkit functions.

A span has an id, a name, a start and an end (``perf_counter`` seconds),
the id of the span that was open when it started (its parent) and a record
key shared by every span of one input record. Spans stay in a list until
the run ends and are written out in one go.

Wrappers are installed by replacing a module or class attribute where the
calling code looks it up, and are removed again by the function that
``install`` returns, so nothing under ``src/`` changes.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter


class Tracer:
    """Collects spans and call counts for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Pool workers forked from a traced process would collect spans that
        # are never written; switch them off in the child instead.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, record=None):
        """Time each call of ``fn`` as a span.

        ``name`` and ``record`` may be callables of ``(args, kwargs)``. A span
        without its own record key inherits its parent's.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent_id, parent_record = stack[-1] if stack else (None, None)
            span_id = next(self._ids)
            key = record(args, kwargs) if record else parent_record
            label = name(args, kwargs) if callable(name) else name
            stack.append((span_id, key))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, label, start, end, parent_id, key))

        return wrapper

    def wrap_iter(self, fn, name, on_call=None):
        """Time each ``next()`` of the iterator ``fn`` returns as one span.

        The record key of a span is the ``id`` of the item it produced.
        ``on_call(args, kwargs)`` sees the arguments of every call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            iterator = iter(fn(*args, **kwargs))
            while True:
                stack = self._stack()
                parent_id = stack[-1][0] if stack else None
                span_id = next(self._ids)
                stack.append((span_id, None))
                start = time.perf_counter()
                try:
                    item = next(iterator, _DONE)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                key = None if item is _DONE else getattr(item, "id", None)
                self.spans.append((span_id, name, start, end, parent_id, key))
                if item is _DONE:
                    return
                yield item

        return wrapper

    def count(self, fn, name):
        """Count calls of ``fn`` without timing them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_open(self, name):
        """An ``open`` whose files opened for writing time each ``write``."""
        tracer = self

        class TimedFile:
            def __init__(self, handle):
                self._handle = handle
                self.write = tracer.wrap(handle.write, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def __getattr__(self, attr):
                return getattr(self._handle, attr)

        def traced_open(file, mode="r", *args, **kwargs):
            handle = builtins.open(file, mode, *args, **kwargs)
            return TimedFile(handle) if "w" in mode else handle

        return traced_open

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write every span, the call counts and ``extra`` as one JSON file."""
        payload = {
            "spans": as_dicts(self.spans),
            "counts": dict(self.counts),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


_DONE = object()


def install(targets) -> callable:
    """Replace attributes by wrappers; return a function that puts them back.

    ``targets`` is a list of ``(module path, attribute path, make_wrapper)``
    where ``make_wrapper(original)`` returns the replacement. An attribute
    path may go through a class, as in ``Turn.__post_init__``.
    """
    undo = []
    for module_path, attr_path, make in targets:
        owner = importlib.import_module(module_path)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, make(getattr(owner, attr, None)))
        undo.append((owner, attr, had, original))

    def restore() -> None:
        for owner, attr, had, original in reversed(undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return restore


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "record")


def as_dicts(raw: list[tuple]) -> list[dict]:
    return [dict(zip(SPAN_FIELDS, span)) for span in raw]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[span["id"]] = (end - start) - covered
    return result


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, summed self time and each inclusive duration."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own[span["id"]]
        entry["durations"].append(span["end"] - span["start"])
    return out
