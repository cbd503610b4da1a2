"""Wire format of the query service: line-delimited JSON.

One request per line, one response per line, UTF-8.  Requests::

    {"sql": "SELECT ...", "engine": "Typer", "options": {"simd": true},
     "timeout": 10.0, "trace": true}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "metrics"}
    {"op": "slowlog"}

``engine`` is a string and ``timeout`` a finite number of seconds
above 0; a query whose ``engine`` or ``timeout`` is anything else is
answered ``error`` without being submitted, and so is a shard node's
``op=partial`` call whose ``engine`` is not a string.

``"trace": true`` attaches a span tree (see :mod:`repro.obs.trace`)
to the query response under ``"trace"``.  ``op=metrics`` returns
Prometheus text exposition under ``"metrics"`` -- service counters,
latency histograms, cache hit/miss and gauges aggregated across all
morsel-pool worker processes.  ``op=slowlog`` returns the N slowest
queries (slowest first), each with its span tree when one was
recorded.

Responses always carry ``status``: ``ok``, ``error`` (bad SQL or
execution failure), ``rejected`` (admission queue full) or ``timeout``
(admitted but not finished within the deadline).
"""

from __future__ import annotations

import json

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"


def jsonable(value):
    """``value`` with numpy scalars/arrays and tuple keys made JSON-safe."""
    if isinstance(value, dict):
        return {
            key if isinstance(key, str) else ",".join(str(part) for part in (
                key if isinstance(key, tuple) else (key,)
            )): jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            pass
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def encode(message: dict) -> bytes:
    """One response/request as a JSON line."""
    return (json.dumps(jsonable(message), sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one JSON line; raises ValueError with a clear message."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON request: {exc}") from None
    if not isinstance(message, dict):
        raise ValueError("request must be a JSON object")
    return message
