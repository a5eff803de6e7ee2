"""Spans recorded by the benchmark around its own calls into decid.

Each workload op calls the library only through ``tracer.call(name, fn,
...)`` where ``name`` is ``<module>.<function>``.  ``NullTracer`` makes
the call directly; ``Tracer`` records a span (name, start, end, parent,
op id) around it and keeps every span in memory until the run ends.
The same op code runs under both, so the untraced run is the traced run
minus the bookkeeping.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

OP = "bench.op"
GLUE = "bench.glue"


class NullTracer:
    def begin(self, op_id):
        pass

    def op(self, fn, *args):
        return fn(*args)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Span recorder.  A span is the tuple
    ``(span_id, parent_id, op_id, name, start_s, end_s)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op_id = None

    def begin(self, op_id):
        """Spans from here on belong to op ``op_id``, including its
        set-up (parsing before the op span, when the op does not)."""
        self._op_id = op_id

    def op(self, fn, *args):
        return self.call(OP, fn, *args)

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._op_id, name, start, end)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, op_id, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op_id,
                                    "name": name, "start": start,
                                    "end": end}) + "\n")

    def self_times(self, scale) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, self seconds, self seconds inside ops)}``.
        Self time is a span's duration minus the durations of its direct
        children, multiplied by ``scale[op id]``; spans outside any op
        span are set-up.  The op spans' self time is ``bench.glue``."""
        child = [0.0] * len(self.spans)
        in_op = [False] * len(self.spans)
        for sid, parent, _, name, start, end in self.spans:
            if parent is None:
                in_op[sid] = name == OP
            else:
                child[parent] += end - start
                in_op[sid] = in_op[parent]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, op_id, name, start, end in self.spans:
            entry = out[GLUE if name == OP else name]
            own = ((end - start) - child[sid]) * scale[op_id]
            entry[0] += 1
            entry[1] += own
            entry[2] += own if in_op[sid] else 0.0
        return {k: tuple(v) for k, v in out.items()}
