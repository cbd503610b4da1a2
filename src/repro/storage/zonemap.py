"""Per-chunk zone maps: min/max/null statistics for data skipping.

"Data Formats in Analytical DBMSs" identifies embedded min/max
statistics as the workhorse pruning mechanism of every modern columnar
format: a scan consults the per-chunk bounds *before* touching the
chunk and skips chunks no row of which can satisfy the predicate.  This
module computes those statistics for every column at load/encode time
-- in the **code domain** for dictionary and frame-of-reference encoded
columns (:mod:`repro.storage.encoding`), so building the map never
decodes a value -- and classifies predicate atoms against them.

Classification contract (the false-positive-only guarantee)
-----------------------------------------------------------
:meth:`ColumnZoneMap.classify` returns one of three verdicts per chunk:

- :data:`ALL_TRUE` -- *every* row of the chunk satisfies the atom; the
  engine's mask for the chunk is provably all ones.
- :data:`ALL_FALSE` -- *no* row satisfies it; the mask is all zeros.
- :data:`MIXED` -- the statistics cannot decide; the chunk must be
  scanned.

ALL_TRUE/ALL_FALSE are theorems, never estimates: the per-chunk
min/max are exact statistics of the stored data, and the atom is
classified with the *same* threshold-to-cut computation the codecs'
``compare`` kernels use (``searchsorted`` against the sorted dictionary,
exact float-threshold rebasing for frame-of-reference codes).  Pruning
built on these verdicts can therefore only keep chunks it did not need
(a false positive costs a scan), never drop a qualifying row.

Chunks are :data:`CHUNK_ROWS` rows -- a multiple of
:data:`~repro.engines.morsel.MORSEL_ALIGN` so chunk boundaries are
always valid morsel boundaries; the final chunk absorbs the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Rows per zone-map chunk.  A multiple of ``MORSEL_ALIGN`` (64) so
#: every chunk boundary is a legal morsel boundary, and small enough
#: that a selective predicate over clustered data isolates narrow kept
#: ranges (8192 rows = 64 KiB per 8-byte column).
CHUNK_ROWS = 8192

#: Classification verdicts (uint8-encoded for vectorized plan logic).
ALL_FALSE = 0
ALL_TRUE = 1
MIXED = 2

#: Dictionary domains up to this size additionally record a per-chunk
#: distinct-code bitmask (one uint64), refining ``eq`` classification.
MAX_CODESET_DOMAIN = 64


#: ``op -> (all_true, all_false)`` over value sets spanning ``[mn, mx]``.
_INTERVAL_RULES = {
    "le": lambda mn, mx, t: (mx <= t, mn > t),
    "lt": lambda mn, mx, t: (mx < t, mn >= t),
    "ge": lambda mn, mx, t: (mn >= t, mx < t),
    "gt": lambda mn, mx, t: (mn > t, mx <= t),
    "eq": lambda mn, mx, t: ((mn == t) & (mx == t), (t < mn) | (t > mx)),
}


def interval_verdicts(
    op: str, threshold, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Exact three-valued verdicts (uint8) of ``value <op> threshold``
    over non-empty value sets spanning ``[mins[i], maxs[i]]`` -- the one
    rule behind zone-map chunks (value or code domain) and partitions."""
    if op not in _INTERVAL_RULES:
        raise ValueError(f"unsupported op {op!r}")
    all_true, all_false = _INTERVAL_RULES[op](mins, maxs, threshold)
    out = np.full(len(mins), MIXED, dtype=np.uint8)
    out[all_true] = ALL_TRUE
    out[all_false] = ALL_FALSE
    return out


def chunk_starts(n_rows: int, chunk_rows: int = CHUNK_ROWS) -> np.ndarray:
    """Start offsets of the chunk grid over ``n_rows`` rows."""
    if n_rows <= 0:
        return np.empty(0, dtype=np.int64)
    return np.arange(0, n_rows, chunk_rows, dtype=np.int64)


@dataclass
class ColumnZoneMap:
    """Per-chunk statistics of one column.

    ``domain`` records what the min/max describe: ``"value"`` (decoded
    values; raw and RLE columns) or ``"dict"``/``"for"`` (codes of the
    matching codec).  Code-domain maps are only meaningful next to the
    encoding they were built from; :meth:`classify` refuses to decide
    (all-MIXED) when the encoding is absent.

    ``null_counts`` is carried for format completeness -- the generated
    TPC-H data has no NULLs, so the counts are zero -- and keeps the
    layout aligned with the formats surveyed in the paper's related
    work, where a chunk of all NULLs prunes any non-IS-NULL predicate.
    """

    chunk_rows: int
    n_rows: int
    domain: str
    mins: np.ndarray
    maxs: np.ndarray
    null_counts: np.ndarray
    code_sets: np.ndarray | None = None

    @property
    def n_chunks(self) -> int:
        return len(self.mins)

    def chunk_bounds(self, index: int) -> tuple[int, int]:
        lo = index * self.chunk_rows
        return lo, min(lo + self.chunk_rows, self.n_rows)

    # ------------------------------------------------------------------
    # Atom classification
    # ------------------------------------------------------------------
    def classify(self, op: str, threshold, encoding=None) -> np.ndarray:
        """Per-chunk verdicts for ``column <op> threshold``.

        ``encoding`` is the column's :class:`EncodedColumn` (or None for
        raw columns); code-domain maps translate the threshold into the
        code domain with the codec's own cut computation, so a verdict
        here agrees exactly with what ``compare`` would return.
        """
        if self.n_chunks == 0:
            return np.empty(0, dtype=np.uint8)
        if self.domain == "value":
            # Mirrors ``compare_values`` exactly.
            return interval_verdicts(op, threshold, self.mins, self.maxs)
        if encoding is None or encoding.codec_kind != self.domain:
            return np.full(self.n_chunks, MIXED, dtype=np.uint8)
        if self.domain == "dict":
            return self._classify_dict(op, threshold, encoding.encoding)
        if self.domain == "for":
            return self._classify_for(op, threshold, encoding.encoding)
        return np.full(self.n_chunks, MIXED, dtype=np.uint8)

    def _const(self, value: bool) -> np.ndarray:
        return np.full(self.n_chunks, ALL_TRUE if value else ALL_FALSE,
                       dtype=np.uint8)

    def _code_verdicts(self, op_codes: str, cut: int) -> np.ndarray:
        """Verdicts for the code-domain mask ``codes <op_codes> cut``;
        ``eq`` is refined by the per-chunk distinct-code sets."""
        verdicts = interval_verdicts(op_codes, cut, self.mins, self.maxs)
        if op_codes == "eq" and self.code_sets is not None and 0 <= cut < 64:
            absent = (self.code_sets >> np.uint64(cut)) & np.uint64(1) == 0
            verdicts[absent] = ALL_FALSE
        return verdicts

    def _classify_dict(self, op: str, threshold, encoding) -> np.ndarray:
        """Mirror of :meth:`DictionaryEncoding.compare`'s cuts."""
        dictionary = encoding.dictionary
        n_dict = len(dictionary)
        if n_dict == 0:
            return self._const(False)
        if op in ("le", "lt"):
            side = "right" if op == "le" else "left"
            cut = int(np.searchsorted(dictionary, threshold, side=side))
            if cut <= 0:
                return self._const(False)
            if cut >= n_dict:
                return self._const(True)
            return self._code_verdicts("lt", cut)
        if op in ("ge", "gt"):
            side = "left" if op == "ge" else "right"
            cut = int(np.searchsorted(dictionary, threshold, side=side))
            if cut <= 0:
                return self._const(True)
            if cut >= n_dict:
                return self._const(False)
            return self._code_verdicts("ge", cut)
        if op == "eq":
            cut = int(np.searchsorted(dictionary, threshold))
            if cut >= n_dict or dictionary[cut] != threshold:
                return self._const(False)
            return self._code_verdicts("eq", cut)
        raise ValueError(f"unsupported op {op!r}")

    def _classify_for(self, op: str, threshold, encoding) -> np.ndarray:
        """Mirror of :meth:`ForBitPackEncoding.compare`'s exact
        float-threshold rebasing."""
        rebased = float(threshold) - float(encoding.reference)
        top = (1 << encoding.bits) - 1
        if op == "le":
            cut = math.floor(rebased)
            if cut < 0:
                return self._const(False)
            return self._code_verdicts("le", min(cut, top))
        if op == "lt":
            cut = math.ceil(rebased)
            if cut <= 0:
                return self._const(False)
            if cut > top:
                return self._const(True)
            return self._code_verdicts("lt", cut)
        if op == "ge":
            cut = math.ceil(rebased)
            if cut <= 0:
                return self._const(True)
            if cut > top:
                return self._const(False)
            return self._code_verdicts("ge", cut)
        if op == "gt":
            cut = math.floor(rebased)
            if cut < 0:
                return self._const(True)
            if cut >= top:
                return self._const(False)
            return self._code_verdicts("gt", cut)
        if op == "eq":
            if rebased != math.floor(rebased) or not 0 <= rebased <= top:
                return self._const(False)
            return self._code_verdicts("eq", int(rebased))
        raise ValueError(f"unsupported op {op!r}")

    # ------------------------------------------------------------------
    # Transport (dbcache / shm)
    # ------------------------------------------------------------------
    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(json-safe meta, payload arrays) for shm export / disk cache."""
        meta = {
            "chunk_rows": self.chunk_rows,
            "n_rows": self.n_rows,
            "domain": self.domain,
        }
        arrays = {
            "mins": self.mins,
            "maxs": self.maxs,
            "nulls": self.null_counts,
        }
        if self.code_sets is not None:
            arrays["codesets"] = self.code_sets
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "ColumnZoneMap":
        return cls(
            chunk_rows=int(meta["chunk_rows"]),
            n_rows=int(meta["n_rows"]),
            domain=meta["domain"],
            mins=arrays["mins"],
            maxs=arrays["maxs"],
            null_counts=arrays["nulls"],
            code_sets=arrays.get("codesets"),
        )


def _chunk_min_max(values: np.ndarray, starts: np.ndarray):
    return (
        np.minimum.reduceat(values, starts),
        np.maximum.reduceat(values, starts),
    )


def build_zone_map(column, chunk_rows: int = CHUNK_ROWS) -> ColumnZoneMap:
    """Zone map for one column (an :class:`EncodedColumn` or an array).

    Encoded dict/FoR columns are scanned in the code domain -- the
    statistics come straight off the (1-4 byte) codes and no value is
    ever decoded; RLE columns reduce their run values; raw columns
    reduce the array.  Cost is one vectorized min/max pass at load time.
    """
    from repro.storage.encoding import EncodedColumn

    if isinstance(column, EncodedColumn):
        n_rows = len(column)
        starts = chunk_starts(n_rows, chunk_rows)
        kind = column.codec_kind
        if kind in ("dict", "for"):
            codes = column.codes_range(0, n_rows)
            mins, maxs = _chunk_min_max(codes, starts)
            code_sets = None
            if kind == "dict" and len(column.encoding.dictionary) <= MAX_CODESET_DOMAIN:
                bits = np.uint64(1) << codes.astype(np.uint64)
                code_sets = np.bitwise_or.reduceat(bits, starts)
            return ColumnZoneMap(
                chunk_rows=chunk_rows,
                n_rows=n_rows,
                domain=kind,
                mins=mins,
                maxs=maxs,
                null_counts=np.zeros(len(starts), dtype=np.int64),
                code_sets=code_sets,
            )
        # RLE (and any future codec): value-domain stats off the decoded
        # view; compare() is bit-identical to the value comparison, so
        # value-domain verdicts stay exact.
        values = np.asarray(column.values)
    else:
        values = np.asarray(column)
        n_rows = len(values)
    n_rows = len(values)
    starts = chunk_starts(n_rows, chunk_rows)
    if n_rows == 0:
        empty = np.empty(0, dtype=values.dtype if values.ndim else np.float64)
        return ColumnZoneMap(chunk_rows, 0, "value", empty, empty,
                             np.empty(0, dtype=np.int64))
    mins, maxs = _chunk_min_max(values, starts)
    return ColumnZoneMap(
        chunk_rows=chunk_rows,
        n_rows=n_rows,
        domain="value",
        mins=mins,
        maxs=maxs,
        null_counts=np.zeros(len(starts), dtype=np.int64),
    )
