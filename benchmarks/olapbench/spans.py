"""The harness's own in-memory span recorder.

The traced run wraps every call the harness makes into a layer's public
function in a span -- name, start, end, parent, request id -- and grafts
in the span tree the service already returns for ``trace_query=True``
instead of timing those layers a second time.  Nothing is written until
:meth:`SpanRecorder.dump` at the end of the run, so recording costs one
``perf_counter`` pair and a list append per span.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _add(self, name, parent, request, start, end, attrs) -> dict:
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "request": request,
            "start": start,
            "end": end,
            "attrs": attrs,
        }
        with self._lock:
            self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, request=None, **attrs):
        """Time the enclosed block as a child of this thread's current
        span; ``request`` defaults to the parent's request id."""
        parent = getattr(self._local, "current", None)
        if request is None and parent is not None:
            request = parent["request"]
        record = self._add(
            name, parent["id"] if parent else None, request,
            time.perf_counter(), None, attrs,
        )
        self._local.current = record
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._local.current = parent

    def request(self, request_id, cls: str, send) -> tuple:
        """Time ``send()`` (which returns a response dict) as one
        ``request`` span and graft the span tree the response carries
        under it.  Returns ``(response, span)``."""
        with self.span("request", request=request_id, cls=cls) as span:
            response = send()
        tree = response.pop("trace", None)
        if tree is not None:
            self.graft(span, tree)
        return response, span

    def graft(self, parent: dict, tree: dict) -> None:
        """Adopt a span tree rendered by ``repro.obs.trace`` (relative
        ``start_ms`` / ``duration_ms``) under ``parent``, anchored at the
        parent's start: the service opens its root span first thing."""
        origin = parent["start"]

        def adopt(node: dict, parent_id: int) -> None:
            start = origin + node["start_ms"] / 1e3
            record = self._add(
                node["name"], parent_id, parent["request"], start,
                start + (node["duration_ms"] or 0.0) / 1e3,
                node.get("attrs", {}),
            )
            for child in node.get("children", ()):
                adopt(child, record["id"])

        adopt(tree, parent["id"])

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, default=str)


def self_times(spans) -> dict:
    """Span id -> self time in seconds: the span's duration minus the
    part of its interval that its child spans cover (children that run
    side by side, like two shard calls, are not counted twice)."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result
