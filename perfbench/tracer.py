"""In-memory span tracer that wraps public functions from the outside.

The benchmark records its per-layer spans around calls into the program
without editing the program: :meth:`Tracer.wrap` swaps a module function or
class method for a wrapper that records ``(name, start, end, parent, run)``
and puts the original back on :meth:`Tracer.restore`.  A wrapper only reads
arguments and results, so a traced run takes the same paths, counts the same
operations and prices the same simulated nanoseconds as an untraced one.

Spans stay in memory and are written at exit as JSON Lines and as Chrome
trace-event JSON (opens in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from types import FunctionType

# Span record layout (a list, for cheap in-place end-time writes).
NAME, START, END, PARENT, RUN, NESTED = range(6)


class Tracer:
    """Records nested spans and named counts while wrapped calls run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: Request identifier stamped on every span opened while it is set.
        self.run: str | None = None
        self._stack: list[int] = []
        self._open: defaultdict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _push(self, name: str) -> list:
        stack = self._stack
        record = [
            name, 0, 0, stack[-1] if stack else -1, self.run, self._open[name] > 0,
        ]
        self._open[name] += 1
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _pop(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()
        self._open[record[NAME]] -= 1

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Trace ``owner.attr`` (a module function or a plain method).

        ``name`` is the span name, or a callable deriving it from the call's
        positional arguments.  ``before(args)`` runs ahead of the call and
        its value is handed to ``after(counts, args, result, token,
        nested)``, which adds to :attr:`counts`; ``nested`` is true when a
        span of the same name is already open.  Both hooks must only read
        what they are given.
        """
        if isinstance(owner, type):
            static = inspect.getattr_static(owner, attr)
            if not isinstance(static, FunctionType):
                raise TypeError(f"{owner.__qualname__}.{attr} is not a plain method")
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            record = tracer._push(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._pop(record)
            if after is not None:
                after(tracer.counts, args, result, token, record[NESTED])
            return result

        self._install(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, count: str) -> None:
        """Trace each ``next()`` of the generators ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)

            def steps():
                while True:
                    record = tracer._push(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._pop(record)
                    tracer.counts[count] += 1
                    yield item

            return steps()

        self._install(owner, attr, traced)

    def wrap_property(self, owner: type, attr: str, before, after) -> None:
        """Count reads of a property: ``after(counts, value, before(obj))``."""
        original = inspect.getattr_static(owner, attr)
        if not isinstance(original, property):
            raise TypeError(f"{owner.__qualname__}.{attr} is not a property")
        counts = self.counts

        def fget(obj):
            token = before(obj)
            value = original.fget(obj)
            after(counts, value, token)
            return value

        self._install(owner, attr, property(fget, doc=original.__doc__))

    def _install(self, owner, attr: str, replacement) -> None:
        previous = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------------ #
    # Summaries and export
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        ``total_s`` counts only the outermost span of a name (a recursive
        call is not counted twice); ``self_s`` is each span's duration minus
        the time its direct children cover.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child_ns[record[PARENT]] += record[END] - record[START]
        out: dict[str, dict[str, float]] = {}
        for index, record in enumerate(spans):
            entry = out.setdefault(record[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = record[END] - record[START]
            entry["self_s"] += (duration - child_ns[index]) * 1e-9
            if not record[NESTED]:
                entry["calls"] += 1
                entry["total_s"] += duration * 1e-9
        return out

    def write(self, jsonl: Path, chrome: Path) -> None:
        """Write the spans as JSON Lines and as Chrome trace-event JSON."""
        jsonl.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0
        with jsonl.open("w") as out:
            for index, record in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": record[NAME],
                    "start_ns": record[START] - origin,
                    "end_ns": record[END] - origin,
                    "parent": record[PARENT],
                    "run": record[RUN],
                }) + "\n")
        events = [
            {
                "name": record[NAME],
                "cat": record[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (record[START] - origin) / 1e3,
                "dur": (record[END] - record[START]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": record[PARENT], "run": record[RUN]},
            }
            for index, record in enumerate(self.spans)
        ]
        chrome.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


_MISSING = object()
