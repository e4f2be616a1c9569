"""Span tracing around the public entry points of each engine layer.

Nothing under ``src/`` records spans: :class:`Tracer` patches the layer
entry points named in :data:`LAYER_CALLS` from outside, and unpatches
them when tracing stops, so an untraced run executes the engine's own
code with no wrapper in the way.  A span is ``(request id, span id,
parent span id, name, start, end)``; the spans of one statement share the
request id its root span (``Session.execute``) was given.  Spans stay in
memory until :meth:`Tracer.dump`.

Calls made on every page or node access are not wrapped: they are read
from ``Database.metrics_snapshot()`` counters, or counted without a span
(:data:`COUNTED_CALLS`), which keeps the tracing overhead low.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter

#: (module, attribute path, span name) of every wrapped call.
LAYER_CALLS = (
    ("repro.txn.session", "Session.execute", "txn.execute"),
    ("repro.txn.session", "Session.execute_stmt", "txn.stmt"),
    ("repro.txn.session", "parse_sql", "query.parse"),
    ("repro.txn.locks", "StripedLockManager.acquire_shared", "txn.lock"),
    ("repro.txn.locks", "StripedLockManager.acquire_exclusive", "txn.lock"),
    ("repro.optimizer.planner", "Planner.plan", "optimizer.plan"),
    ("repro.summaries.storage", "SummaryStorage.get", "summaries.read"),
    ("repro.summaries.storage", "SummaryStorage.label_count",
     "summaries.read"),
    ("repro.summaries.storage", "SummaryStorage.label_counts",
     "summaries.read"),
    ("repro.summaries.storage", "SummaryStorage.scan", "summaries.read"),
    ("repro.summaries.maintenance", "SummaryManager.add_annotation",
     "summaries.maintain"),
    ("repro.summaries.instances", "ClassifierInstance.classify", "mining"),
    ("repro.summaries.instances", "SnippetInstance.snippet_for", "mining"),
    ("repro.annotations.store", "AnnotationStore.create", "annotations"),
    ("repro.annotations.store", "AnnotationStore.get", "annotations"),
    ("repro.annotations.store", "AnnotationStore.get_many", "annotations"),
    ("repro.annotations.store", "AnnotationStore.texts", "annotations"),
    ("repro.annotations.store", "AnnotationStore.scan", "annotations"),
    ("repro.index.summary_btree", "SummaryBTreeIndex.on_summary_insert",
     "index.maintain"),
    ("repro.index.summary_btree", "SummaryBTreeIndex.on_summary_update",
     "index.maintain"),
    ("repro.btree.node", "LeafNode.to_bytes", "btree.encode"),
    ("repro.btree.node", "InternalNode.to_bytes", "btree.encode"),
    ("repro.wal.writer", "WALWriter.append", "wal.append"),
    ("repro.wal.writer", "WALWriter.sync", "wal.sync"),
    ("repro.core.database", "Database.save", "core.checkpoint"),
    ("repro.server.server", "encode_frame", "server.frame"),
    ("repro.server.server", "jsonable_result", "server.frame"),
)

#: (module, attribute path, counter name) of calls counted without spans.
COUNTED_CALLS = (
    ("repro.btree.node", "LeafNode.from_bytes", "btree.decodes"),
    ("repro.btree.node", "InternalNode.from_bytes", "btree.decodes"),
)

#: spans of bench-process recovery (``Database.recover`` calls these).
RECOVERY_CALLS = (
    ("repro.core.database", "Database.load", "core.recover_load"),
    ("repro.wal.recovery", "replay", "core.recover_replay"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans and call counts from patched layer entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: one Counter per thread (merged by :meth:`dump`), so counting
        #: needs no lock.
        self._counters: list[Counter] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []
        #: id(session) -> [tag, next statement number]
        self._sessions: dict[int, list] = {}

    # -- patching ------------------------------------------------------------

    def install(self, calls=LAYER_CALLS, counted=COUNTED_CALLS) -> None:
        for module, path, name in calls:
            self._patch(module, path, self._span_wrapper, name)
        for module, path, name in counted:
            self._patch(module, path, self._count_wrapper, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, module: str, path: str, make, name: str) -> None:
        owner, attr = _resolve(module, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__, name))
        else:
            wrapped = make(raw, name)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def tag_session(self, session, tag: int) -> None:
        """Name a server session after the client connection it serves,
        so server spans and client round trips share request ids."""
        self._sessions[id(session)] = [tag, 0]

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request_id(self, name: str, args) -> str:
        if name == "txn.execute" and args:
            entry = self._sessions.get(id(args[0]))
            if entry is not None:
                entry[1] += 1
                return f"{entry[0]}:{entry[1]}"
        return f"-{next(self._ids)}"

    def _open(self, name: str, args):
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            rid, parent = stack[-1][0], stack[-1][1]
        else:
            rid, parent = self._request_id(name, args), 0
        stack.append((rid, span_id))
        return rid, span_id, parent

    def _close(self, opened, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        rid, span_id, parent = opened
        self.spans.append((rid, span_id, parent, name, start, end))

    def _span_wrapper(self, fn, name: str):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Generators: one span per item produced, so the consumer's
            # own work between items is not charged to this layer.
            @functools.wraps(fn)
            def scan_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = time.perf_counter()
                    opened = tracer._open(name, args)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(opened, name, start)
                    yield item
            return scan_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            opened = tracer._open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(opened, name, start)
        return wrapper

    def _count_wrapper(self, fn, name: str):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = getattr(local, "counts", None)
            if counts is None:
                counts = local.counts = Counter()
                self._counters.append(counts)
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self) -> dict:
        """Everything recorded so far, JSON-shaped."""
        counts: Counter = Counter()
        for per_thread in self._counters:
            counts.update(per_thread)
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(counts)}


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the time its direct children cover.

    Children of one span run on the span's own thread, nested inside it,
    so they never overlap each other."""
    child_time: dict[int, float] = {}
    for _rid, _sid, parent, _name, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for _rid, sid, _parent, _name, start, end in spans
    }
