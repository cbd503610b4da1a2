"""Encoded execution must be bit-identical to raw execution.

The compressed storage tier (:mod:`repro.storage.encoding`) promises
that operating on codes changes *nothing observable*: values, tuple
counts, work profiles, per-operator attribution and modeled cycles all
match a database whose columns are plain arrays -- for every engine,
every workload, and any morsel partitioning.  The raw twin (``raw_db``)
is one database of the matrix (``tests/matrix``), whose cells compare
it against the call on the encoded ``tiny_db``; the tests here keep
their ids and add modeled cycles, the scan kernels' masks and the
payload round trip.
"""

from __future__ import annotations

import numpy as np
import pytest
from matrix.cells import ENGINES, assert_bit_identical
from matrix.suites import cases, cells

from repro import MicroArchProfiler
from repro.engines import engine_by_name
from repro.storage import ColumnTable, Database, EncodedColumn
from repro.tpch.queries import q6_predicates


class TestSingleShot:
    @cases("encoded::test_results_and_work_match")
    def test_results_and_work_match(self, matrix, cells):
        matrix.check(cells)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_modeled_cycles_match(self, tiny_db, raw_db, engine_name):
        """Identical work must model to identical cycles: the default
        cycle path never sees encoded widths."""
        engine = engine_by_name(engine_name)
        profiler = MicroArchProfiler()
        for method in ("run_q1", "run_q6"):
            encoded = profiler.run(engine, method, tiny_db)
            raw = profiler.run(engine, method, raw_db)
            assert encoded.cycles == raw.cycles, f"{engine.name} {method}"


class TestMorsels:
    """Encoded columns under ``row_range`` slicing: the codecs must
    produce per-morsel masks equal to slicing the decoded column, and
    the raw twin's merged result must match the encoded single shot."""

    @cases("encoded::test_merged_matches_raw_merged")
    def test_merged_matches_raw_merged(self, matrix, cells):
        matrix.check(cells)


class TestAggToggle:
    """Code-domain aggregation on (the encoded database) and off (its
    raw twin, whose columns have no codes to aggregate) only changes the
    execution strategy: values and work are identical, and the twin
    reports every aggregate in a decoded mode."""

    @cases("encoded::test_toggle_off_matches_toggle_on")
    def test_toggle_off_matches_toggle_on(self, matrix, cells):
        matrix.check(cells)

    def test_pool_spawned_with_toggle_off_matches_single_shot(self, matrix, tiny_db):
        """A pool over the raw twin decodes every slot and still merges
        to the code-domain single-shot result."""
        single = engine_by_name("Tectorwise").run_q1(tiny_db)
        assert single.details["encoded_agg"]["code_domain"] >= 2
        matrix.check(cells("encoded::test_pool_spawned_with_toggle_off_matches_single_shot"))


class TestPredicateMasks:
    """The shared scan kernels, checked directly against numpy on the
    decoded arrays for every encoded lineitem column."""

    def test_every_encoded_column_compares_exactly(self, tiny_db):
        lineitem = tiny_db.table("lineitem")
        n = lineitem.n_rows
        encoded = [name for name in lineitem.column_names if lineitem.encoding(name)]
        assert encoded, "the fixture database holds no encoded columns"
        for name in encoded:
            column = lineitem.encoding(name)
            decoded = np.asarray(lineitem[name])
            for threshold in (
                decoded.min(), decoded.max(),
                decoded[n // 2], float(np.median(decoded)),
            ):
                for op, numpy_op in (
                    ("le", np.less_equal), ("lt", np.less),
                    ("ge", np.greater_equal), ("gt", np.greater),
                    ("eq", np.equal),
                ):
                    np.testing.assert_array_equal(
                        column.compare(op, threshold, 0, n),
                        numpy_op(decoded, threshold),
                        err_msg=f"{name} {op} {threshold}",
                    )

    def test_q6_predicates_match_raw(self, tiny_db, raw_db):
        for (label, got), (_, expected) in zip(
            q6_predicates(tiny_db), q6_predicates(raw_db)
        ):
            np.testing.assert_array_equal(got, expected, err_msg=label)


class TestTransportEquivalence:
    """Payload round-trips (the shm/disk format) preserve execution."""

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_rebuilt_columns_execute_identically(self, tiny_db, engine_name):
        engine = engine_by_name(engine_name)
        rebuilt = Database(name=tiny_db.name, scale_factor=tiny_db.scale_factor)
        for name in tiny_db.table_names:
            table = tiny_db.table(name)
            columns = {}
            for c in table.column_names:
                encoding = table.encoding(c)
                if encoding is None:
                    columns[c] = np.asarray(table[c])
                else:
                    meta, arrays = encoding.payload()
                    columns[c] = EncodedColumn.from_payload(c, meta, arrays)
            rebuilt.add_table(ColumnTable(name, columns))
        for method in ("run_q1", "run_q6"):
            assert_bit_identical(
                getattr(engine, method)(rebuilt), getattr(engine, method)(tiny_db),
                f"{engine.name} rebuilt {method}",
            )
