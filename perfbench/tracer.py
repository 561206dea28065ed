"""Spans and counters recorded around shockdev's functions from outside.

A function is wrapped where its caller looks it up: the module attribute
the caller binds (``free_boundary.solve_jump_beta``, not
``jump.solve_jump_beta``), so the library itself is not edited and the
wrappers come off again with :meth:`Tracer.restore`.  Spans stay in
memory as ``[name, start, end, parent]`` and are written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Records nested spans and named counts for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    # -- installing wrappers ------------------------------------------------

    def _replace(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``on_return(counts, args, result)`` may add counts taken from the
        call's arguments or result.
        """
        spans, stack, clock, counts = self.spans, self._open, time.perf_counter, self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
                if on_return is not None:
                    on_return(counts, args, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` (no timing)."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading the record -------------------------------------------------

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a name, so a
        layer nested in itself is not counted twice.  Self time is a span's
        duration minus the time its direct children cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                incl[name] += t1 - t0
        return calls, incl, self_s

    def write(self, path) -> None:
        """Dump spans (times relative to the first span) and counts as JSON."""
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, t0 - base, t1 - base, p] for n, t0, t1, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
