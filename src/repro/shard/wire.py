"""Checksummed wire codec for partial results and scattered calls.

Partial states carry ExactSum limb columns (an int64 array plus its
first-limb index), WorkProfiles and numpy arrays -- none of which
survive JSON -- so the shard protocol ops embed a pickled payload
(base64, with a SHA-256 digest) inside the existing JSON line.  The digest turns a truncated or bit-flipped
partial into :class:`CorruptPartial` at the coordinator, which treats
it exactly like a dead replica: fail over, never merge garbage.
"""

from __future__ import annotations

import base64
import hashlib
import pickle


class CorruptPartial(ValueError):
    """A wire partial failed its digest or could not be decoded."""


def _pack(payload: object) -> dict:
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "payload": base64.b64encode(raw).decode("ascii"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def _unpack(message: dict) -> object:
    try:
        raw = base64.b64decode(message["payload"].encode("ascii"), validate=True)
    except (KeyError, AttributeError, ValueError) as exc:
        raise CorruptPartial(f"undecodable shard payload: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    if digest != message.get("sha256"):
        raise CorruptPartial(
            f"shard payload digest mismatch: got {digest[:12]}..., "
            f"header says {str(message.get('sha256'))[:12]}..."
        )
    try:
        return pickle.loads(raw)
    except Exception as exc:  # pickle raises a zoo of types
        raise CorruptPartial(f"shard payload does not unpickle: {exc}") from None


def encode_call(method: str, kwargs_items: tuple) -> dict:
    """One normalized engine call (already lowered and bound) as wire
    fields.  The coordinator lowers once; shard nodes never parse SQL."""
    return {"op": "partial", "method": method, **_pack(kwargs_items)}


def decode_call(message: dict) -> tuple[str, tuple]:
    method = message.get("method")
    if not isinstance(method, str):
        raise CorruptPartial("scattered call is missing its method")
    kwargs_items = _unpack(message)
    return method, tuple(kwargs_items)


def encode_partial(result) -> dict:
    """A still-partial QueryResult (``run_call(..., finish=False)``)
    as wire fields."""
    return _pack(
        {
            "workload": result.workload,
            "state": result.details["partial"],
            "row_range": tuple(result.details["row_range"]),
            "operators": result.details.get("operators"),
            "tuples": result.tuples,
            "work": result.work,
            "pruning": result.details.get("pruning"),
            "rollup": result.details.get("rollup"),
        }
    )


def decode_partial(message: dict):
    """Reconstruct the partial QueryResult from wire fields."""
    from repro.engines.base import QueryResult

    data = _unpack(message)
    if not isinstance(data, dict) or "state" not in data:
        raise CorruptPartial("shard payload is not a partial result")
    details = {
        "partial": data["state"],
        "row_range": tuple(data["row_range"]),
    }
    if data.get("operators") is not None:
        details["operators"] = data["operators"]
    if data.get("pruning") is not None:
        details["pruning"] = data["pruning"]
    if data.get("rollup") is not None:
        details["rollup"] = data["rollup"]
    return QueryResult(
        workload=data["workload"],
        value=None,
        tuples=int(data["tuples"]),
        work=data["work"],
        details=details,
    )
