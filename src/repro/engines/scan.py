"""Scan and aggregation kernels over possibly-encoded columns.

Engines funnel their predicate evaluations through
:func:`predicate_mask`: when the column carries an encoding
(:mod:`repro.storage.encoding`) the comparison runs *in the code
domain* -- 1-2 byte unsigned codes instead of 8-byte values, with the
threshold rebased once per call -- and falls back to the raw numpy
comparison otherwise.  The codecs preserve value order exactly, so the
returned mask is bit-identical either way; all work-profile recording
(which is a function of the mask and the logical byte widths) is
untouched by the routing.

The same contract extends to **aggregation** (the MorphStore
direction): :func:`exact_sum_column` and :func:`grouped_exact_sum`
sum *codes* instead of decoded values -- per-code occurrence counts
(dict / narrow FoR), run views (RLE), or the FoR integer identity --
and rebase once per call into :class:`ExactSum` units that are
bit-identical to summing the decoded column.  Each call records a
**morph decision** (code-domain vs decode-then-sum, per column and
operator); engines carry it in ``state["const_encoded_agg"]`` and the
finishers surface it as ``details["encoded_agg"]`` plus an
``encoded_agg`` span.
"""

from __future__ import annotations

import numpy as np

from repro.core.exactsum import ExactSum
from repro.core.pruning import scan_outcome
from repro.obs import trace
from repro.storage.column import ColumnTable
from repro.storage.encoding import compare_values, selection_mask

#: Merge-state key engines use to carry the morph decision to their
#: finishers (``const_``: every morsel computes the identical tuple).
AGG_STATE_KEY = "const_encoded_agg"

#: Bound on the combined (group cell x measure code) bincount domain of
#: :func:`grouped_exact_sum`; larger products decode instead.
GROUPED_DOMAIN_CAP = 1 << 20

#: Rows per batch of the decode-then-sum fallback over MIXED chunks.
UNPACK_BATCH_ROWS = 1 << 16


def predicate_mask(
    table: ColumnTable, column: str, op: str, threshold, lo: int, hi: int
) -> np.ndarray:
    """Evaluate ``column <op> threshold`` over rows ``[lo, hi)``.

    Runs on the encoded codes when the column has an encoding, on the
    decoded values otherwise; the result is identical by construction.
    Inside a pruned block (:mod:`repro.core.pruning`) the outcome is a
    zone-map theorem and the constant mask is produced without touching
    the data -- equal, bit for bit, to what the scan would return.
    """
    outcome = scan_outcome(column, op, threshold, lo, hi)
    if outcome is not None:
        return np.full(hi - lo, outcome, dtype=bool)
    encoded = table.encoding(column)
    if encoded is not None:
        return encoded.compare(op, threshold, lo, hi)
    return compare_values(table[column][lo:hi], op, threshold)


def combined_key(
    table: ColumnTable,
    major: str,
    minor: str,
    multiplier: int,
    lo: int,
    hi: int,
    take=None,
) -> np.ndarray:
    """``major * multiplier + minor`` as int64 group keys.

    When both columns are encoded with tiny domains the keys come
    straight from the codes through the dictionary-sized decode tables
    -- the decoded key columns are never materialised.  ``take``
    optionally restricts rows (mask or indices).
    """
    major_enc = table.encoding(major)
    minor_enc = table.encoding(minor)
    if major_enc is not None and minor_enc is not None:
        major_domain = major_enc.small_domain()
        minor_domain = minor_enc.small_domain()
        if major_domain is not None and minor_domain is not None:
            major_codes = major_enc.codes_range(lo, hi)
            minor_codes = minor_enc.codes_range(lo, hi)
            if take is not None:
                major_codes = major_codes[take]
                minor_codes = minor_codes[take]
            return (
                major_domain.astype(np.int64)[major_codes] * multiplier
                + minor_domain.astype(np.int64)[minor_codes]
            )
    major_values = table[major][lo:hi]
    minor_values = table[minor][lo:hi]
    if take is not None:
        major_values = major_values[take]
        minor_values = minor_values[take]
    return major_values * multiplier + minor_values


# ----------------------------------------------------------------------
# Code-domain aggregation (sum codes, not values)
# ----------------------------------------------------------------------
def batched_decode_sum(
    encoded, dtype, lo: int, hi: int, selected=None,
    batch_rows: int = UNPACK_BATCH_ROWS,
) -> ExactSum:
    """Decode-then-sum fallback for MIXED chunks: unpack the encoded
    column in bounded batches and accumulate each batch exactly.

    Used when a chunk has no exact code-domain path (wide FoR domains
    beyond the float64-exactness guard, unsupported codec shapes): the
    full decoded column is never materialised, and ExactSum's
    associativity makes the batched accumulation bit-identical to a
    single ``of_array`` over the whole range.
    """
    mask = selection_mask(selected, hi - lo)
    total = ExactSum()
    for start in range(lo, hi, batch_rows):
        end = min(start + batch_rows, hi)
        values = encoded.decode_range(start, end).astype(dtype, copy=False)
        if mask is not None:
            values = values[mask[start - lo : end - lo]]
        total += ExactSum.of_array(values)
    return total


def exact_sum_column(
    table: ColumnTable, column: str, lo: int, hi: int, selected=None
) -> tuple[ExactSum, str, str]:
    """``sum(column[lo:hi][selected])`` as an exact sum, plus the morph
    decision ``(mode, why)`` that produced it.

    The cost rule: an encoded column with an exact code-domain shape
    (per-code counts, RLE run view, or the FoR integer identity) sums
    codes; everything else decodes and sums values.  Both paths produce
    bit-identical :class:`ExactSum` units -- the decision changes the
    execution strategy, never the result.
    """
    encoded = table.encoding(column) if hasattr(table, "encoding") else None
    if encoded is None:
        values = table[column][lo:hi]
        if selected is not None:
            values = values[selected]
        return ExactSum.of_array(values), "decoded", "column-raw"
    result = encoded.exact_sum(lo, hi, selected)
    if result is not None:
        return result, "code-domain", encoded.codec_kind
    return (
        batched_decode_sum(encoded, encoded.dtype, lo, hi, selected),
        "decoded",
        "batched-unpack",
    )


def grouped_exact_sum(
    table: ColumnTable,
    major: str,
    minor: str,
    multiplier: int,
    measure: str,
    lo: int,
    hi: int,
    selected=None,
):
    """Grouped exact sum in the code domain, or None when ineligible.

    One ``bincount`` over the combined (major x minor x measure-code)
    domain yields per-group-cell measure-code counts; their column sums
    are rebased **once** into ExactSum units, so the global sum and the
    set of observed group keys are both bit-identical to the decoded
    path (``ExactSum.of_array`` over the selected measure values +
    ``np.unique`` over the combined key).

    Returns ``(total, keys)``: the exact sum over all groups and the
    set of ``major * multiplier + minor`` key values that occur in the
    selection.
    """
    major_enc = table.encoding(major)
    minor_enc = table.encoding(minor)
    measure_enc = table.encoding(measure)
    if major_enc is None or minor_enc is None or measure_enc is None:
        return None
    major_domain = major_enc.small_domain()
    minor_domain = minor_enc.small_domain()
    measure_domain = measure_enc.agg_domain()
    if major_domain is None or minor_domain is None or measure_domain is None:
        return None
    n_major, n_minor = len(major_domain), len(minor_domain)
    n_measure = len(measure_domain)
    if n_major * n_minor * n_measure > GROUPED_DOMAIN_CAP:
        return None
    major_codes = major_enc.codes_range(lo, hi)
    minor_codes = minor_enc.codes_range(lo, hi)
    measure_codes = measure_enc.codes_range(lo, hi)
    if selected is not None:
        major_codes = major_codes[selected]
        minor_codes = minor_codes[selected]
        measure_codes = measure_codes[selected]
    combined = (
        major_codes.astype(np.int64) * (n_minor * n_measure)
        + minor_codes.astype(np.int64) * n_measure
        + measure_codes
    )
    counts = np.bincount(
        combined, minlength=n_major * n_minor * n_measure
    ).reshape(n_major * n_minor, n_measure)
    occupied = np.flatnonzero(counts.sum(axis=1))
    measure_values = np.asarray(measure_domain).astype(
        table.column(measure).dtype, copy=False
    )
    total = ExactSum.of_counts(measure_values, counts.sum(axis=0))
    # Key values exactly as the decoded path computes them: decoded
    # dtypes, then ``major * multiplier + minor`` under numpy promotion.
    major_values = np.asarray(major_domain).astype(
        table.column(major).dtype, copy=False
    )
    minor_values = np.asarray(minor_domain).astype(
        table.column(minor).dtype, copy=False
    )
    keys = (
        major_values[occupied // n_minor] * multiplier
        + minor_values[occupied % n_minor]
    )
    return total, set(keys.tolist())


def q1_encoded_aggregation(lineitem, lo: int, hi: int, selected):
    """Q1's morph decision and (when eligible) its code-domain payload.

    Q1 sums four measures.  Only ``sum(l_quantity)`` is a direct column
    sum over an encoded column, so it -- together with the group-key
    set, which falls out of the same combined bincount -- is the
    code-domain candidate; ``l_extendedprice`` is stored raw, and
    ``disc_price`` / ``charge`` round *per row* inside their derived
    expressions, which no code rebase can reproduce.

    Returns ``(payload, decision)`` where payload is
    ``(sum_qty, keys)`` or None and decision is the per-measure morph
    record for ``details["encoded_agg"]``.
    """
    grouped = grouped_exact_sum(
        lineitem, "l_returnflag", "l_linestatus", 2, "l_quantity",
        lo, hi, selected,
    )
    if grouped is not None:
        qty_mode, qty_why = "code-domain", "grouped-bincount"
    elif lineitem.encoding("l_quantity") is None:
        qty_mode, qty_why = "decoded", "column-raw"
    else:
        qty_mode, qty_why = "decoded", "domain-too-large"
    decision = (
        ("sum_qty", "l_quantity", qty_mode, qty_why),
        ("group_keys", "l_returnflag*l_linestatus", qty_mode, qty_why),
        ("sum_base_price", "l_extendedprice", "decoded", "column-raw"),
        ("sum_disc_price", None, "decoded", "derived-expression"),
        ("sum_charge", None, "decoded", "derived-expression"),
    )
    return grouped, decision


def decision_details(decision) -> dict | None:
    """``details["encoded_agg"]`` from a morph-decision tuple."""
    if not decision:
        return None
    measures = [
        {"slot": slot, "column": column, "mode": mode, "why": why}
        for slot, column, mode, why in decision
    ]
    return {
        "measures": measures,
        "code_domain": sum(1 for m in measures if m["mode"] == "code-domain"),
        "decoded": sum(1 for m in measures if m["mode"] == "decoded"),
    }


def record_encoded_agg(decision) -> None:
    """Emit the ``encoded_agg`` span for a morph decision that put at
    least one aggregate in the code domain (all-decoded decisions stay
    silent so trace shapes without encoded aggregation are unchanged).
    """
    code_domain = [
        slot for slot, _, mode, _ in decision if mode == "code-domain"
    ]
    if not code_domain:
        return
    with trace.span(
        "encoded_agg",
        code_domain=len(code_domain),
        decoded=len(decision) - len(code_domain),
        slots=",".join(code_domain),
    ):
        pass
