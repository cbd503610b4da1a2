"""Tests for rollup storage (:mod:`repro.rollup.table`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rollup import build_rollup, default_lineitem_spec
from repro.rollup.build import RollupSpec
from repro.core.exactsum import encode_units
from repro.rollup.table import AggregateSpec, RollupTable


def decode_unit(signs: np.ndarray, magnitudes: np.ndarray, width: int,
                index: int) -> int:
    """One row's units as a Python int, decoded byte by byte (the
    per-row reader the rollup tables used before their limb view)."""
    raw = magnitudes[index * width:(index + 1) * width]
    return int(signs[index]) * int.from_bytes(bytes(raw.tobytes()), "big")


def per_row_total(rollup, agg_name: str, indices) -> int:
    meta, arrays = rollup.payload()
    width = next(e["width"] for e in meta["aggregates"] if e["name"] == agg_name)
    signs = arrays[f"agg.{agg_name}.sign"]
    magnitudes = arrays[f"agg.{agg_name}.mag"]
    return sum(decode_unit(signs, magnitudes, width, int(i)) for i in indices)


class TestAggregateSpec:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown aggregate kind"):
            AggregateSpec("x", "avg", "col:l_quantity")

    def test_non_count_needs_expression(self):
        with pytest.raises(ValueError, match="needs an expression"):
            AggregateSpec("x", "sum")

    def test_count_needs_no_expression(self):
        assert AggregateSpec("n", "count").expr == ""


class TestUnitCodec:
    def test_round_trip_small(self):
        units = [0, 1, -1, 255, -256, 2**20]
        signs, magnitudes, width = encode_units(units)
        assert signs.dtype == np.int8 and magnitudes.dtype == np.uint8
        assert len(magnitudes) == len(units) * width
        for index, expected in enumerate(units):
            assert decode_unit(signs, magnitudes, width, index) == expected

    def test_width_covers_largest_magnitude(self):
        # ExactSum units count 2^-1074 quanta: a float64 around 1e9
        # needs ~1100 bits of units.  The codec must survive that.
        big = 37 * 2**1100
        signs, magnitudes, width = encode_units([big, -big, 3])
        assert width >= (big.bit_length() + 7) // 8
        assert decode_unit(signs, magnitudes, width, 0) == big
        assert decode_unit(signs, magnitudes, width, 1) == -big
        assert decode_unit(signs, magnitudes, width, 2) == 3

    def test_empty_units(self):
        signs, magnitudes, width = encode_units([])
        assert len(signs) == 0 and len(magnitudes) == 0 and width == 1

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**1200), max_value=2**1200), max_size=12))
    def test_round_trip_property(self, units):
        signs, magnitudes, width = encode_units(units)
        decoded = [
            decode_unit(signs, magnitudes, width, index)
            for index in range(len(units))
        ]
        assert decoded == units


@pytest.fixture(scope="module")
def rollup(rollup_db):
    return rollup_db.rollup(rollup_db.rollup_names[0])


class TestRollupTable:
    def test_shape(self, rollup, rollup_db):
        lineitem = rollup_db.table("lineitem")
        assert rollup.base_table == "lineitem"
        assert rollup.keys == ("l_returnflag", "l_linestatus")
        assert rollup.source_rows == lineitem.n_rows
        assert rollup.partition_column == "l_shipdate"
        assert rollup.n_rows >= 1
        assert rollup.nbytes < lineitem.nbytes / 100

    def test_aggregate_named(self, rollup):
        assert rollup.aggregate_named("sum", "col:l_quantity").name == "sum_qty"
        assert rollup.aggregate_named("count").name == "row_count"
        assert rollup.aggregate_named("sum", "nope") is None

    def test_counts_cover_all_source_rows(self, rollup):
        counts = rollup.plain_column("row_count")
        assert int(counts.sum()) == rollup.source_rows

    def test_sum_units_adds_per_row_units(self, rollup):
        all_rows = np.arange(rollup.n_rows)
        total = rollup.sum_units("sum_qty", all_rows)
        assert total.units == per_row_total(rollup, "sum_qty", all_rows)

    def test_row_bytes_counts_selected_aggregates(self, rollup):
        base = rollup.row_bytes(())
        one = rollup.row_bytes(("sum_qty",))
        two = rollup.row_bytes(("sum_qty", "row_count"))
        assert base > 0 and one > base and two > one

    def test_payload_round_trip(self, rollup):
        meta, arrays = rollup.payload()
        again = RollupTable.from_payload(meta, arrays)
        assert again.keys == rollup.keys
        assert again.n_rows == rollup.n_rows
        np.testing.assert_array_equal(again.partition_ids, rollup.partition_ids)
        for key in rollup.keys:
            np.testing.assert_array_equal(
                again.key_columns[key], rollup.key_columns[key]
            )
        selected = np.arange(rollup.n_rows)
        for spec in rollup.aggregates:
            if spec.kind == "sum":
                assert again.sum_units(spec.name, selected) == rollup.sum_units(
                    spec.name, selected
                )
            else:
                np.testing.assert_array_equal(
                    again.plain_column(spec.name), rollup.plain_column(spec.name)
                )

    def test_meta_is_json_clean(self, rollup):
        import json

        meta, _ = rollup.payload()
        assert json.loads(json.dumps(meta)) == meta

    def test_payload_arrays_are_flat(self, rollup):
        # shm descriptors record (dtype, length, offset) with no shape:
        # every payload array must be 1-D.
        _, arrays = rollup.payload()
        assert all(a.ndim == 1 for a in arrays.values())

    def test_pickling_is_refused(self, rollup):
        import pickle

        with pytest.raises(TypeError, match="must not be pickled"):
            pickle.dumps(rollup)


def test_limb_view_equals_per_row_decode_on_every_rollup(rollup_db, tiny_db):
    """``sum_units`` regroups the stored bytes into limbs by a view; on
    every rollup these tests build, any selection of rows must total
    what decoding row by row gives."""
    keyless = RollupSpec(
        name="totals", keys=(),
        aggregates=(AggregateSpec("sum_qty", "sum", "col:l_quantity"),),
    )
    rollups = [rollup_db.rollup(name) for name in rollup_db.rollup_names] + [
        build_rollup(tiny_db, default_lineitem_spec()),
        build_rollup(rollup_db, keyless),
    ]
    rng = np.random.default_rng(13)
    for rollup in rollups:
        n = rollup.n_rows
        selections = [
            np.arange(n), np.arange(0), np.array([n - 1]),
            rng.choice(n, size=max(1, n // 3), replace=False),
        ]
        for spec in rollup.aggregates:
            if spec.kind != "sum":
                continue
            for indices in selections:
                assert rollup.sum_units(spec.name, indices).units == per_row_total(
                    rollup, spec.name, indices
                )
