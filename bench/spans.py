"""In-memory span recorder that wraps functions at their import sites.

A traced call replaces module attributes (``tfilm.driver.solve_step``,
``tfilm.step.energy``, ...) with wrappers for the duration of one
top-level call and restores them afterwards, so no code under ``src/``
changes and untraced calls run the original functions.

A span is ``[id, call, name, start, end, parent]``: ``call`` is the index
of the top-level call the span belongs to and ``parent`` is the id of the
enclosing span (-1 at the top).  The recorder keeps one stack, so it
assumes that traced code runs on a single thread.
"""

import csv
import functools
import time
from collections import Counter
from contextlib import contextmanager

ID, CALL, NAME, START, END, PARENT = range(6)

# Children may sum to a hair more than their parent through rounding of
# the summed float durations; anything beyond this is a nesting error.
SELF_TIME_SLACK_S = 1e-9


class Tracer:
    """Records spans and counts while ``active`` is entered."""

    def __init__(self, spans, counts, hooks=None):
        """spans/counts: ``(module, attribute, name)`` triples to wrap.

        ``hooks`` maps a span name to a function called with the wrapped
        function's result, for counts read from return values.
        """
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._call = -1
        hooks = hooks or {}
        self._patches = [
            (mod, attr, self._span_wrapper(name, getattr(mod, attr), hooks.get(name)))
            for mod, attr, name in spans
        ] + [
            (mod, attr, self._count_wrapper(name, getattr(mod, attr)))
            for mod, attr, name in counts
        ]

    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), self._call, name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def active(self, call):
        """Install the wrappers for one top-level call, then restore."""
        self._call = call
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._patches]
        try:
            for mod, attr, wrapper in self._patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def nesting_errors(self):
        """Spans that leave their parent's interval or have negative self time."""
        errors = []
        for s in self.spans:
            if s[PARENT] >= 0:
                p = self.spans[s[PARENT]]
                if not (p[START] <= s[START] <= s[END] <= p[END]) or p[CALL] != s[CALL]:
                    errors.append(f"span {s[ID]} ({s[NAME]}) is not inside parent {p[ID]}")
        for s, own in zip(self.spans, self.self_times()):
            if own < -SELF_TIME_SLACK_S:
                errors.append(f"span {s[ID]} ({s[NAME]}) has self time {own:.3e} s")
        return errors

    def by_name(self):
        """name -> (durations, self times) over all recorded spans."""
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            durs, selfs = out.setdefault(s[NAME], ([], []))
            durs.append(s[END] - s[START])
            selfs.append(own)
        return out

    @classmethod
    def from_csv(cls, path):
        """A recorder holding the spans that ``write_csv`` wrote."""
        tracer = cls([], [])
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            tracer.spans = [[int(i), int(c), n, float(a), float(b), int(p)]
                            for i, c, n, a, b, p in rows]
        return tracer

    def write_csv(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "call", "name", "start_s", "end_s", "parent"])
            w.writerows(self.spans)
