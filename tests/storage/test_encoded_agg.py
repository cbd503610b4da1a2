"""Code-domain aggregation must rebase bit-identically to decoded sums.

The encoded-aggregation tier (:meth:`EncodedColumn.exact_sum`, the
kernels in :mod:`repro.engines.scan`) promises that summing codes --
per-code counts, RLE run views, or the FoR integer identity -- produces
the *same* :class:`ExactSum` units as ``ExactSum.of_array`` over the
decoded rows, for every codec, any sub-range (partial runs at morsel or
prune boundaries), any selection mask, empty groups, negative values
and extreme offsets/magnitudes.  These properties are what make the
morph decision a pure execution-strategy choice.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exactsum import ExactSum
from repro.engines.scan import (
    batched_decode_sum,
    exact_sum_column,
    grouped_exact_sum,
)
from repro.storage import ColumnTable
from repro.storage.encoding import (
    AGG_MAX_BITS,
    DictionaryEncoding,
    EncodedColumn,
    ForBitPackEncoding,
    RLEEncoding,
)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# The rebase primitive
# ----------------------------------------------------------------------
@given(
    values=st.lists(_FINITE, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_of_counts_matches_expansion(values, seed):
    """``of_counts`` equals ``of_array`` over the materialised
    expansion, including zero counts and extreme magnitudes."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, size=len(values))
    expanded = np.repeat(np.asarray(values, dtype=np.float64), counts)
    assert ExactSum.of_counts(values, counts) == ExactSum.of_array(expanded)


def test_of_counts_empty_is_zero():
    assert ExactSum.of_counts([], []) == ExactSum.of_array(np.empty(0))
    assert ExactSum.of_counts([3.5, -1.25], [0, 0]) == ExactSum(0)


def test_of_integer_total_is_exact_lift():
    assert ExactSum.of_integer_total(7) == ExactSum.of(7.0)
    assert ExactSum.of_integer_total(-3) == ExactSum.of(-3.0)
    assert ExactSum.of_integer_total(0) == ExactSum(0)


# ----------------------------------------------------------------------
# Per-codec exact_sum over sub-ranges and selections
# ----------------------------------------------------------------------
@st.composite
def _dict_values(draw):
    domain = draw(st.lists(_FINITE, min_size=1, max_size=6, unique=True))
    codes = draw(st.lists(st.integers(0, len(domain) - 1), min_size=1, max_size=64))
    return np.asarray([domain[c] for c in codes], dtype=np.float64)


@st.composite
def _rle_values(draw):
    runs = draw(
        st.lists(
            st.tuples(st.integers(-10**9, 10**9), st.integers(1, 8)),
            min_size=1,
            max_size=12,
        )
    )
    return np.repeat(
        np.asarray([v for v, _ in runs], dtype=np.int64),
        [n for _, n in runs],
    )


def _draw_range_and_mask(draw, n):
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    mask = np.asarray(
        draw(st.lists(st.booleans(), min_size=hi - lo, max_size=hi - lo)),
        dtype=bool,
    )
    return lo, hi, mask


@settings(max_examples=60)
@given(data=st.data())
def test_dict_exact_sum_bit_identical(data):
    values = data.draw(_dict_values())
    encoding = DictionaryEncoding.encode(values)
    assert encoding is not None
    column = EncodedColumn("x", encoding, values.dtype)
    lo, hi, mask = _draw_range_and_mask(data.draw, len(values))
    assert column.exact_sum(lo, hi) == ExactSum.of_array(values[lo:hi])
    assert column.exact_sum(lo, hi, mask) == ExactSum.of_array(values[lo:hi][mask])


@settings(max_examples=60)
@given(data=st.data())
def test_rle_exact_sum_splits_partial_runs(data):
    """Sub-ranges cut runs at arbitrary offsets (exactly what pruned /
    morsel boundaries do); masked fragments must count per position."""
    values = data.draw(_rle_values())
    encoding = RLEEncoding.encode(values)
    assert encoding is not None
    column = EncodedColumn("x", encoding, values.dtype)
    lo, hi, mask = _draw_range_and_mask(data.draw, len(values))
    assert column.exact_sum(lo, hi) == ExactSum.of_array(values[lo:hi])
    assert column.exact_sum(lo, hi, mask) == ExactSum.of_array(values[lo:hi][mask])


def test_rle_pruned_morsel_keeps_only_run_fragments():
    """A pruned morsel over an RLE column aggregates only the kept run
    fragments: a constant-False mask yields exactly zero, a sub-range
    strictly inside one run yields exactly its fragment."""
    values = np.repeat(np.asarray([5, -3, 11], dtype=np.int64), [100, 50, 70])
    column = EncodedColumn("x", RLEEncoding.encode(values), values.dtype)
    n = len(values)
    assert column.exact_sum(0, n, np.zeros(n, dtype=bool)) == ExactSum(0)
    # [110, 130) lies inside the -3 run: 20 fragment rows.
    assert column.exact_sum(110, 130) == ExactSum.of_array(values[110:130])
    assert column.exact_sum(110, 130).total() == -60.0


@settings(max_examples=60)
@given(
    reference=st.integers(-(2**52), 2**52),
    data=st.data(),
)
def test_for_exact_sum_bit_identical(reference, data):
    """FoR columns: both the small-domain counts path (bits <= 16) and
    the wide-domain integer identity must match the decoded sum; when
    the exactness guard refuses, the batched-unpack fallback must."""
    bits = data.draw(st.integers(1, AGG_MAX_BITS + 4))
    codes = np.asarray(
        data.draw(
            st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=64)
        ),
        dtype=np.int64,
    )
    values = codes + reference
    encoding = ForBitPackEncoding.encode(values, reference=reference, bits=bits)
    column = EncodedColumn("x", encoding, np.dtype(np.int64))
    lo, hi, mask = _draw_range_and_mask(data.draw, len(values))
    expected = ExactSum.of_array(values[lo:hi][mask])
    result = column.exact_sum(lo, hi, mask)
    if result is not None:
        assert result == expected
    else:
        # Only the wide-domain identity may refuse, and only beyond the
        # float64-exactness guard.
        assert bits > AGG_MAX_BITS
        assert abs(reference) + (1 << bits) > 1 << 53
    fallback = batched_decode_sum(column, np.int64, lo, hi, mask, batch_rows=16)
    assert fallback == expected


def test_for_wide_domain_guard_refuses_inexact_floats():
    """reference near 2**53: decoded values round on float64
    conversion, so the integer identity must step aside and the
    batched fallback must reproduce the decoded (rounded) sum."""
    reference = (1 << 53) - 100
    bits = AGG_MAX_BITS + 1  # wide: only the integer identity applies
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 1 << bits, size=300)
    values = codes + reference
    encoding = ForBitPackEncoding.encode(values, reference=reference, bits=bits)
    column = EncodedColumn("x", encoding, np.dtype(np.int64))
    assert column.exact_sum(0, len(values)) is None
    assert batched_decode_sum(
        column, np.int64, 0, len(values), batch_rows=64
    ) == ExactSum.of_array(values)


# ----------------------------------------------------------------------
# The grouped kernel against the decoded reference
# ----------------------------------------------------------------------
def _grouped_table(rng, n):
    flags = rng.integers(0, 3, size=n)
    status = rng.integers(0, 2, size=n)
    qty_domain = np.asarray([-2.5, 0.0, 1.0, 7.25, 50.0])
    qty = qty_domain[rng.integers(0, len(qty_domain), size=n)]
    table = ColumnTable(
        "t",
        {
            "flag": EncodedColumn(
                "flag", ForBitPackEncoding.encode(flags), np.dtype(np.int64)
            ),
            "status": EncodedColumn(
                "status", ForBitPackEncoding.encode(status), np.dtype(np.int64)
            ),
            "qty": EncodedColumn(
                "qty", DictionaryEncoding.encode(qty), qty.dtype
            ),
        },
    )
    return table, flags, status, qty


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grouped_exact_sum_matches_decoded(seed, data):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 128))
    table, flags, status, qty = _grouped_table(rng, n)
    lo, hi, mask = _draw_range_and_mask(data.draw, n)
    result = grouped_exact_sum(table, "flag", "status", 2, "qty", lo, hi, mask)
    assert result is not None
    total, keys = result
    key = flags.astype(np.int64) * 2 + status.astype(np.int64)
    assert total == ExactSum.of_array(qty[lo:hi][mask])
    assert keys == set(np.unique(key[lo:hi][mask]).tolist())


def test_grouped_exact_sum_empty_selection_has_no_groups():
    rng = np.random.default_rng(11)
    table, _, _, _ = _grouped_table(rng, 64)
    total, keys = grouped_exact_sum(
        table, "flag", "status", 2, "qty", 0, 64, np.zeros(64, dtype=bool)
    )
    assert total == ExactSum(0)
    assert keys == set()


def test_grouped_exact_sum_accepts_index_selections():
    """Tectorwise passes selection *indices*, Typer a boolean mask;
    both spellings must agree."""
    rng = np.random.default_rng(13)
    table, flags, status, qty = _grouped_table(rng, 96)
    mask = rng.random(96) < 0.5
    indices = np.flatnonzero(mask)
    assert grouped_exact_sum(
        table, "flag", "status", 2, "qty", 0, 96, mask
    ) == grouped_exact_sum(table, "flag", "status", 2, "qty", 0, 96, indices)


def test_grouped_exact_sum_requires_encodings():
    table = ColumnTable(
        "t", {"flag": np.zeros(8), "status": np.zeros(8), "qty": np.ones(8)}
    )
    assert grouped_exact_sum(table, "flag", "status", 2, "qty", 0, 8) is None


# ----------------------------------------------------------------------
# The morph decision
# ----------------------------------------------------------------------
def test_exact_sum_column_modes():
    rng = np.random.default_rng(5)
    table, _, _, qty = _grouped_table(rng, 64)
    total, mode, why = exact_sum_column(table, "qty", 0, 64)
    assert (mode, why) == ("code-domain", "dict")
    assert total == ExactSum.of_array(qty)

    raw = ColumnTable("raw", {"qty": qty})
    total, mode, why = exact_sum_column(raw, "qty", 0, 64)
    assert (mode, why) == ("decoded", "column-raw")
    assert total == ExactSum.of_array(qty)
