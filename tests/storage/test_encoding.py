"""Codec round-trip properties and the operate-on-codes contract.

Every codec must (a) decode back to exactly the input, (b) answer any
range/equality predicate with exactly the mask the decoded values would
produce, and (c) survive its payload round-trip (the shm/disk
transport).  Hypothesis drives the inputs through the documented edge
cases: empty, constant, single-run, unsorted, negative and max-width
columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.encoding import (
    MAX_DICT_SIZE,
    MAX_FOR_BITS,
    OPS,
    DictionaryEncoding,
    EncodedColumn,
    ForBitPackEncoding,
    RLEEncoding,
    choose_encoding,
    compare_values,
    encode_column,
    pack_bits,
    unpack_bits,
)

# -- strategies --------------------------------------------------------
small_ints = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=200
)
runny_ints = st.lists(
    st.integers(min_value=-5, max_value=5), max_size=200
).map(sorted)
small_floats = st.lists(
    st.sampled_from([0.0, -1.5, 0.02, 0.04, 0.06, 99.99, 1e18]), max_size=200
)
ops = st.sampled_from(OPS)


def _ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _check_roundtrip(encoding, values: np.ndarray) -> None:
    np.testing.assert_array_equal(
        encoding.decode_range(0, len(values)), values
    )
    # Partial ranges decode the matching slice.
    if len(values) > 1:
        lo, hi = 1, len(values) - 1
        np.testing.assert_array_equal(
            encoding.decode_range(lo, hi), values[lo:hi]
        )


def _check_payload_roundtrip(encoding, values: np.ndarray) -> None:
    column = EncodedColumn("x", encoding, values.dtype)
    meta, arrays = column.payload()
    rebuilt = EncodedColumn.from_payload("x", meta, arrays)
    np.testing.assert_array_equal(rebuilt.values, values)
    assert rebuilt.codec_kind == column.codec_kind


def _check_compare(encoding, values: np.ndarray, op: str, threshold) -> None:
    expected = compare_values(values, op, threshold)
    got = encoding.compare(op, threshold, 0, len(values))
    np.testing.assert_array_equal(got, expected)


class TestBitPackKernels:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=300),
        st.integers(min_value=32, max_value=64),
    )
    def test_pack_unpack_roundtrip(self, codes, bits):
        codes = np.asarray(codes, dtype=np.uint64)
        words = pack_bits(codes, bits)
        np.testing.assert_array_equal(
            unpack_bits(words, bits, len(codes)), codes
        )

    @given(st.integers(min_value=1, max_value=64))
    def test_max_width_codes_survive(self, bits):
        top = (1 << bits) - 1
        codes = np.asarray([0, top, top, 0, top], dtype=np.uint64)
        words = pack_bits(codes, bits)
        np.testing.assert_array_equal(unpack_bits(words, bits, 5), codes)

    def test_empty(self):
        assert len(pack_bits(np.empty(0, dtype=np.uint64), 7)) == 0
        assert len(unpack_bits(np.empty(0, dtype=np.uint64), 7, 0)) == 0

    def test_packed_is_dense(self):
        # 64 // bits codes per word (no word-straddling).
        codes = np.arange(64, dtype=np.uint64) % 8
        per_word = 64 // 3
        assert pack_bits(codes, 3).nbytes == 8 * -(-64 // per_word)


class TestDictionaryCodec:
    @given(small_ints)
    def test_roundtrip(self, values):
        values = _ints(values)
        encoding = DictionaryEncoding.encode(values)
        _check_roundtrip(encoding, values)
        _check_payload_roundtrip(encoding, values)

    @given(small_floats, ops, st.sampled_from(
        [0.0, 0.02, 0.05, 99.99, -10.0, 1e18, 2e18]
    ))
    def test_compare_matches_decoded(self, values, op, threshold):
        values = np.asarray(values, dtype=np.float64)
        encoding = DictionaryEncoding.encode(values)
        _check_compare(encoding, values, op, threshold)

    @given(small_ints, ops)
    def test_compare_int_thresholds(self, values, op):
        values = _ints(values)
        encoding = DictionaryEncoding.encode(values)
        for threshold in (-(2**40), -1, 0, 1, 2**40):
            _check_compare(encoding, values, op, threshold)

    def test_empty(self):
        values = np.empty(0, dtype=np.float64)
        encoding = DictionaryEncoding.encode(values)
        _check_roundtrip(encoding, values)
        assert len(encoding.compare("le", 0.0, 0, 0)) == 0

    def test_constant(self):
        values = np.full(100, 7.25)
        encoding = DictionaryEncoding.encode(values)
        assert len(encoding.dictionary) == 1
        assert encoding.codes.dtype == np.uint8
        _check_roundtrip(encoding, values)


class TestRLECodec:
    @given(runny_ints)
    def test_roundtrip_sorted(self, values):
        values = _ints(values)
        encoding = RLEEncoding.encode(values)
        _check_roundtrip(encoding, values)
        _check_payload_roundtrip(encoding, values)

    @given(small_ints)
    def test_roundtrip_unsorted(self, values):
        # RLE itself never requires sortedness (only the policy does).
        values = _ints(values)
        encoding = RLEEncoding.encode(values)
        _check_roundtrip(encoding, values)

    @given(runny_ints, ops, st.integers(min_value=-6, max_value=6))
    def test_compare_matches_decoded(self, values, op, threshold):
        values = _ints(values)
        encoding = RLEEncoding.encode(values)
        _check_compare(encoding, values, op, threshold)

    @pytest.mark.parametrize("values", [
        np.empty(0, dtype=np.int64),            # empty
        np.full(50, -3, dtype=np.int64),        # single run
        np.asarray([9], dtype=np.int64),        # single element
    ])
    def test_edge_shapes(self, values):
        encoding = RLEEncoding.encode(values)
        _check_roundtrip(encoding, values)
        for op in OPS:
            _check_compare(encoding, values, op, -3)

    def test_morsel_ranges_match_slices(self):
        values = np.repeat(np.arange(10, dtype=np.int64), 7)
        encoding = RLEEncoding.encode(values)
        for lo, hi in ((0, 70), (3, 11), (7, 7), (69, 70), (5, 65)):
            np.testing.assert_array_equal(
                encoding.decode_range(lo, hi), values[lo:hi]
            )
            np.testing.assert_array_equal(
                encoding.compare("ge", 4, lo, hi), values[lo:hi] >= 4
            )


class TestForBitPackCodec:
    @given(st.lists(
        st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=200
    ))
    def test_roundtrip(self, values):
        values = _ints(values)
        encoding = ForBitPackEncoding.encode(values)
        if encoding is None:  # span wider than MAX_FOR_BITS: policy bails
            span = int(values.max()) - int(values.min())
            assert span.bit_length() > MAX_FOR_BITS
            return
        _check_roundtrip(encoding, values)
        _check_payload_roundtrip(encoding, values)

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                 max_size=200),
        ops,
        st.sampled_from([-101, -100, -1, 0, 1, 99, 100, 101, 0.5, -0.5,
                         23.999, -99.5]),
    )
    def test_compare_matches_decoded(self, values, op, threshold):
        """Including float thresholds, which exercise the exact
        floor/ceil rebasing."""
        values = _ints(values)
        encoding = ForBitPackEncoding.encode(values)
        _check_compare(encoding, values, op, threshold)

    def test_negative_reference(self):
        values = np.asarray([-7, -3, -7, -1], dtype=np.int64)
        encoding = ForBitPackEncoding.encode(values)
        assert encoding.reference == -7
        _check_roundtrip(encoding, values)

    def test_max_width_span_rejected(self):
        values = np.asarray([0, 2**MAX_FOR_BITS], dtype=np.int64)
        assert ForBitPackEncoding.encode(values) is None

    def test_scan_codes_are_byte_aligned(self):
        values = np.arange(1000, dtype=np.int64)
        encoding = ForBitPackEncoding.encode(values)
        assert encoding.bits == 10
        assert encoding.codes().dtype == np.uint16
        assert encoding.scan_itemsize == 2.0


class TestPolicy:
    def test_sorted_keys_get_rle(self):
        values = np.repeat(np.arange(100, dtype=np.int64), 3)
        assert choose_encoding(values).kind == "rle"

    def test_bounded_ints_get_for(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2000, 5000, dtype=np.int64)
        assert choose_encoding(values).kind == "for"

    def test_low_cardinality_floats_get_dict(self):
        rng = np.random.default_rng(1)
        values = rng.choice([0.0, 0.02, 0.04, 0.06], 5000)
        assert choose_encoding(values).kind == "dict"

    def test_high_cardinality_floats_stay_raw(self):
        rng = np.random.default_rng(2)
        assert choose_encoding(rng.uniform(0, 1, 20000)) is None

    def test_nan_floats_stay_raw(self):
        values = np.asarray([1.0, np.nan, 2.0])
        assert choose_encoding(values) is None

    def test_empty_stays_raw(self):
        assert choose_encoding(np.empty(0, dtype=np.int64)) is None

    def test_wide_ints_fall_back_to_dict_probe(self):
        # Range >> 2^32 but only three distinct values: dictionary wins.
        rng = np.random.default_rng(3)
        values = rng.choice(
            np.asarray([0, 2**40, 2**50], dtype=np.int64), 5000
        )
        assert choose_encoding(values).kind == "dict"

    def test_dictionary_cap_respected(self):
        values = np.arange(MAX_DICT_SIZE + 1, dtype=np.float64)
        assert choose_encoding(values) is None


class TestEncodedColumnContract:
    def test_logical_view_matches_raw(self):
        values = np.repeat(np.asarray([3.5, 7.25], dtype=np.float64), 40)
        column = encode_column("x", values)
        assert column.nbytes == values.nbytes
        assert column.itemsize == values.itemsize
        assert column.dtype == values.dtype
        assert len(column) == len(values)
        np.testing.assert_array_equal(column.values, values)
        assert column.encoded_nbytes < values.nbytes

    def test_values_cache_is_readonly(self):
        column = encode_column("x", np.arange(100, dtype=np.int64) % 4)
        with pytest.raises(ValueError):
            column.values[0] = 99

    def test_take_matches_fancy_indexing(self):
        values = (np.arange(500, dtype=np.int64) * 7) % 23
        column = encode_column("x", values)
        indices = np.asarray([0, 499, 17, 17, 3])
        np.testing.assert_array_equal(column.take(indices), values[indices])

    def test_renamed_shares_encoding(self):
        column = encode_column("x", np.arange(100, dtype=np.int64) % 4)
        clone = column.renamed("y")
        assert clone.encoding is column.encoding
        assert clone.name == "y"
