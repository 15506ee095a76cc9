"""In-memory call spans around functions reached through module attributes.

``Tracer.wrap`` replaces one module attribute with a timing wrapper. The
package resolves its calls through module or global lookups at call time, so
every call, from the benchmark or from inside the package, goes through the
wrapper while it is installed, and ``Tracer.restore`` puts the originals back.

A span records name, start, end, the index of its parent span (-1 at top
level), the op id current when it opened, and counters from an optional
``info(args, kwargs, result)`` callback. A span's self time is its duration
minus the durations of its direct children; calls on one thread nest, so the
children never overlap.

``Tracer.mark`` installs a transparent wrapper instead: it records an
interval (for a network layer, say) without becoming anyone's parent, so the
module spans inside it keep their own parents and self times.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, end, parent, op, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus its direct children's durations."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def ancestors(spans, i):
    """Indices of the parents of span i, innermost first."""
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.marks: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = _safe_info(info, args, kwargs, out)
            return out

        self._install(owner, attr, fn, traced)

    def mark(self, owner, attr: str, name_of) -> None:
        """Transparent interval named ``name_of(args, kwargs)``."""
        fn = getattr(owner, attr)
        marks = self.marks

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            name, info = name_of(args, kwargs)
            marks.append(Span(name, start, perf_counter(), -1, self.op, info))
            return out

        self._install(owner, attr, fn, marked)

    def _install(self, owner, attr, fn, wrapper):
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        """One JSON object per span, module spans then marks."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for kind, spans, sts in (("call", self.spans, selfs),
                                     ("mark", self.marks, [None] * len(self.marks))):
                for i, (s, st) in enumerate(zip(spans, sts)):
                    f.write(json.dumps({
                        "kind": kind, "id": i, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent, "op": s.op,
                        "self": st, "info": s.info,
                    }) + "\n")


def _safe_info(info, args, kwargs, out):
    try:
        return info(args, kwargs, out)
    except Exception:                          # noqa: BLE001 - counters only
        return None
