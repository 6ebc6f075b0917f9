"""Span tracer that times calls into rlbl's public functions from outside.

Wrappers replace a function on the module (or a method on the class) that
its callers look it up on, record one span per call, and are removed again
by ``restore``. rlbl itself carries no timers.

Spans are kept in memory as parallel lists (layer, start, end, parent
index) and written as JSON at the end of a run. The self time of a span is
its duration minus the durations of its direct children.
"""

import functools
import json
import time
from collections import Counter

_MISSING = object()


class Tracer:
    def __init__(self):
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = Counter()
        self.skipped = []   # "owner.attr" targets that no longer exist
        self._stack = []
        self._patches = []  # (owner, attr, previous value or _MISSING)

    def patch(self, owner, attr, layer, count=None):
        """Replace owner.attr by a timing wrapper that records spans as ``layer``.

        ``count(counts, result)`` may add work counts from the call's result.
        A target that a refactor removed is skipped, so its layer reads 0.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            target = f"{getattr(owner, '__name__', owner)}.{attr}"
            if target not in self.skipped:
                self.skipped.append(target)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.layer.append(layer)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[layer + "_calls"] += 1
            if count is not None:
                count(tracer.counts, result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self):
        """Put every patched function back, newest patch first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def self_times(self):
        """Seconds per layer, each span counted as its duration minus its
        direct children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        totals = Counter()
        for name, d, c in zip(self.layer, dur, child):
            totals[name] += d - c
        return totals

    def write(self, path):
        names = sorted(set(self.layer))
        index = {name: i for i, name in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "layers": names,
            "layer": [index[n] for n in self.layer],
            "start_s": [round(s - t0, 7) for s in self.start],
            "end_s": [round(e - t0, 7) for e in self.end],
            "parent": self.parent,
            "counts": dict(self.counts),
            "skipped": self.skipped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
