"""Driver-side tracing for the traced benchmark run.

Spans are recorded only here, in the benchmark: :meth:`Tracer.install`
replaces the engine's public functions (and ``pyarrow.parquet`` opens and
Ray Data plan executions) with thin wrappers that time each call made from
the driver. Worker-side work is invisible to the driver and appears inside
the wrapper of the call that waited for it. A span carries its name, start,
end, parent span and the id of the benchmark op it belongs to; spans stay
in memory and are written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name): every name a call can be resolved through
# from the driver. Modules that bind a function at import time
# (``from x import f``) need their own entry.
ENGINE_CALLS = [
    ("odibel_ray.cdc.sink", "replay_publish", "cdc.sink.replay_publish"),
    ("odibel_ray.cdc.sink", "incremental_apply", "cdc.sink.incremental_apply"),
    ("odibel_ray.cdc.sink", "compact_published", "cdc.sink.compact_published"),
    ("odibel_ray.cdc.sink", "lookup_key", "cdc.sink.lookup_key"),
    ("odibel_ray.cdc.sink", "read_published", "cdc.sink.read_published"),
    ("odibel_ray.cdc.sink", "load_manifests", "cdc.sink.load_manifests"),
    ("odibel_ray.cdc.sink", "extract_timeline", "cdc.schema.extract_timeline"),
    ("odibel_ray.cdc.schema", "extract_timeline", "cdc.schema.extract_timeline"),
    ("odibel_ray.cdc.apply", "replay_partitioned", "cdc.apply.replay_partitioned"),
    ("odibel_ray.cdc.skipping", "file_may_match", "cdc.skipping.file_may_match"),
    ("odibel_ray.sources.stream", "spool_jsonl", "sources.stream.spool_jsonl"),
    ("odibel_ray.sources.stream", "tail_stream", "sources.stream.tail_stream"),
    ("pyarrow.parquet", "read_table", "parquet.open"),
    ("pyarrow.parquet", "read_metadata", "parquet.open"),
    ("pyarrow.parquet", "read_schema", "parquet.open"),
]

EXEC = "ray.data.exec"
EXEC_START = "ray.data.executions"


class Tracer:
    """Span recorder. ``enabled`` gates recording, so wrappers stay
    installed for a whole run and ops can alternate traced/untraced."""

    def __init__(self) -> None:
        # [id, name, op, parent, start, end]
        self.spans: list[list] = []
        # [op, name, value] — counts taken at the same boundaries
        self.marks: list[list] = []
        self.enabled = False
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ---- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, self.op,
               self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter()

    def mark(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.marks.append([self.op, name, value])

    @contextmanager
    def op_span(self, op_id: int, kind: str):
        """One traced benchmark op: its root span is ``op.<kind>`` and every
        wrapped call inside it records a child span."""
        self.enabled, self.op = True, op_id
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self.enabled, self.op = False, None

    def _timed_iter(self, it):
        it = iter(it)
        while True:
            if not self.enabled:  # drained after its op ended: not recorded
                yield from it
                return
            with self.span(EXEC):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    # ---- installation ----------------------------------------------------
    def _wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*a, **k):
            if not tracer.enabled:
                return orig(*a, **k)
            with tracer.span(name):
                return orig(*a, **k)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        for mod, attr, name in ENGINE_CALLS:
            self._wrap(importlib.import_module(mod), attr, name)
        from ray.data._internal.plan import ExecutionPlan

        tracer = self
        orig_exec = ExecutionPlan.execute
        orig_iter = ExecutionPlan.execute_to_iterator
        orig_create = ExecutionPlan.create_executor

        def execute(plan, *a, **k):
            if not tracer.enabled:
                return orig_exec(plan, *a, **k)
            with tracer.span(EXEC):
                return orig_exec(plan, *a, **k)

        def execute_to_iterator(plan, *a, **k):
            if not tracer.enabled:
                return orig_iter(plan, *a, **k)
            with tracer.span(EXEC):
                it, stats, executor = orig_iter(plan, *a, **k)
            # the pulls happen in the consumer: time each one as its own span
            return tracer._timed_iter(it), stats, executor

        def create_executor(plan, *a, **k):
            tracer.mark(EXEC_START)
            return orig_create(plan, *a, **k)

        for attr, fn, orig in (("execute", execute, orig_exec),
                               ("execute_to_iterator", execute_to_iterator, orig_iter),
                               ("create_executor", create_executor, orig_create)):
            setattr(ExecutionPlan, attr, fn)
            self._undo.append((ExecutionPlan, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["id", "name", "op", "parent", "start", "end"],
                       "spans": self.spans, "marks": self.marks}, f)


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once)."""
    kids: dict[int, list[list]] = {}
    for s in spans:
        if s[3] is not None:
            kids.setdefault(s[3], []).append(s)
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(kids.get(s[0], []), key=lambda c: c[4]):
            lo, hi = max(c[4], start), min(c[5], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered
    return out


def layer_summary(spans: list[list], marks: list[list]) -> dict:
    """Aggregate finished spans per name: ``calls``, ``self_s`` (summed
    self time), ``durations`` (inclusive, one per call) plus mark totals,
    and the number of traced ops."""
    st = self_times(spans)
    by_name: dict[str, dict] = {}
    ops = {s[2] for s in spans if s[3] is None}
    parent_name = {s[0]: s[1] for s in spans}
    for s in spans:
        d = by_name.setdefault(s[1], {"calls": 0, "self_s": 0.0, "durations": [],
                                      "outer_calls": 0})
        d["calls"] += 1
        d["self_s"] += st[s[0]]
        d["durations"].append(s[5] - s[4])
        # a call not nested in a call of the same layer (e.g. a parquet
        # open made by another parquet open)
        if s[3] is None or parent_name[s[3]] != s[1]:
            d["outer_calls"] += 1
    for op, name, value in marks:
        d = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [],
                                      "outer_calls": 0})
        d["calls"] += value
    return {"ops": len(ops), "layers": by_name}
