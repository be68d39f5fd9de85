"""In-memory span recorder that wraps module-level names from outside a package.

A span is (name, start, end, parent): ``parent`` is the index of the span that
was open when this one started, or -1.  Spans stay in memory until ``write``.
Wrappers are installed only inside ``installed()`` and the original objects are
put back on exit, so untraced code runs exactly the program's own functions.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, object] = {}    # most recent value per key
        self._stack: list[int] = []
        self._targets: list[tuple] = []      # (owner, key, span name, after)

    def wrap(self, owner, key, name, after=None) -> None:
        """Register ``owner.key`` (or ``owner[key]``) to be traced as ``name``.

        ``after(tracer, args, result)`` runs once the call returns, outside
        the span, to record counts.
        """
        self._targets.append((owner, key, name, after))

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _traced(self, fn, name, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for owner, key, name, after in self._targets:
                fn = _get(owner, key)
                originals.append((owner, key, fn))
                _set(owner, key, self._traced(fn, name, after))
            yield self
        finally:
            for owner, key, fn in reversed(originals):
                _set(owner, key, fn)

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because one thread records them all.
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, children):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - inner
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
