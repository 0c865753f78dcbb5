"""In-memory spans taken around calls into the program's layers.

Spans are recorded only from the benchmark's own files: a traced run
replaces a public entry point (a module function, a stage object's
method) with a wrapper that records ``[id, name, start, end, parent,
request]`` and calls the original.  Nothing is written until the run
ends.  A span's parent is the innermost span open on the same thread
when it started; its request id is given by the wrapper or inherited
from the parent.

A layer's self time is its spans' durations minus the part their child
spans cover.  Every workload opens one ``op`` span per operation, so
the self times of all spans in a run add up to the traced wall clock
of its operations, and the ``op`` spans' own self time is the part no
layer span covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

ID, NAME, START, END, PARENT, REQUEST = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        #: Counts taken at the same boundaries as the spans.
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, request, push=True):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = [next(self._ids), name, time.perf_counter(), None,
                None if parent is None else parent[ID], request]
        self.spans.append(span)
        if push:
            stack.append(span)
        return span

    def _close(self, span, push=True):
        span[END] = time.perf_counter()
        if push:
            self._stack().pop()

    @contextmanager
    def span(self, name, request=None):
        span = self._open(name, request)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, request_of=None):
        """A synchronous wrapper recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(*args, **kwargs) if request_of else None
            span = self._open(name, request)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_async(self, fn, name, request_of=None):
        """A coroutine wrapper.  Its span is never a parent: other
        coroutines run on the same thread while it awaits."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            request = request_of(*args, **kwargs) if request_of else None
            span = self._open(name, request, push=False)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, push=False)

        return traced

    def patch(self, owner, attribute, name, request_of=None):
        """Replace ``owner.attribute`` with its traced wrapper."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name, request_of))

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def trace_stages(tracer, pipeline, prefix="pipeline"):
    """Wrap a miner pipeline's stage objects (instance attributes, so
    only this miner is traced)."""
    for stage, methods in (
        (pipeline.ingest, ("ingest", "drain", "release_all")),
        (pipeline.cluster, ("cluster",)),
        (pipeline.track, ("step", "flush")),
        (pipeline.emit, ("observe", "emit_tick", "emit_flush")),
    ):
        for method in methods:
            tracer.patch(stage, method, f"{prefix}.{stage.name}")


def load_trace(path):
    """``(spans, counts)`` as :meth:`Tracer.dump` wrote them."""
    with open(path) as handle:
        data = json.load(handle)
    return data["spans"], data["counts"]


def self_times(spans):
    """``{name: total self seconds}``: each span's duration minus the
    durations of its children."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(float)
    for span in spans:
        totals[span[NAME]] += (span[END] - span[START]) - child_time[span[ID]]
    return dict(totals)


def envelope_by_request(spans, name):
    """``{request: seconds}`` from the first ``name`` span's start to the
    last one's end, per request id."""
    bounds = {}
    for span in spans:
        if span[NAME] == name:
            key = span[REQUEST]
            if isinstance(key, list):
                key = tuple(key)
            lo, hi = bounds.get(key, (span[START], span[END]))
            bounds[key] = (min(lo, span[START]), max(hi, span[END]))
    return {key: hi - lo for key, (lo, hi) in bounds.items()}


def layer_report(spans, root="op"):
    """Self time per layer, plus the root's uncovered remainder, over
    the span trees under ``root`` spans.  Returns ``(wall_s,
    {layer: self_s}, uncovered_s)``; the self times and the uncovered
    remainder add up to ``wall_s``."""
    by_id = {span[ID]: span for span in spans}

    def root_of(span):
        while span[PARENT] is not None:
            span = by_id[span[PARENT]]
        return span

    rooted = [span for span in spans if root_of(span)[NAME] == root]
    totals = self_times(rooted)
    wall = sum(s[END] - s[START] for s in rooted if s[NAME] == root)
    uncovered = totals.pop(root, 0.0)
    return wall, totals, uncovered
