"""Encoded execution must be bit-identical to raw execution.

The compressed storage tier (:mod:`repro.storage.encoding`) promises
that operating on codes changes *nothing observable*: values, tuple
counts, work profiles, per-operator attribution and modeled cycles all
match a database whose columns are plain arrays -- for every engine,
every workload, and any morsel partitioning.  This module builds a
decoded twin of the (encoded) test database and checks the full matrix
exactly, the same way :mod:`tests.engines.test_morsel_equivalence`
pins the morsel protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MicroArchProfiler
from repro.engines import ALL_ENGINES
from repro.engines.morsel import morsel_ranges
from repro.storage import ColumnTable, Database, EncodedColumn
from repro.tpch.queries import q6_predicates

WORKLOADS = [
    ("run_projection", {"degree": 4}),
    ("run_selection", {"selectivity": 0.5}),
    ("run_selection", {"selectivity": 0.1, "predicated": True}),
    ("run_join", {"size": "large"}),
    ("run_groupby", {}),
    ("run_q1", {}),
    ("run_q6", {}),
    ("run_q9", {}),
    ("run_q18", {}),
]

WORKLOAD_IDS = [
    f"{method[len('run_'):]}-{'-'.join(f'{k}{v}' for k, v in kwargs.items()) or 'default'}"
    for method, kwargs in WORKLOADS
]


@pytest.fixture(scope="module")
def raw_twin(tiny_db):
    """``tiny_db`` with every column decoded to a plain array.

    A distinct Database identity, so the execution cache can never
    alias the two (its keys include the database identity)."""
    twin = Database(name=tiny_db.name, scale_factor=tiny_db.scale_factor)
    for name in tiny_db.table_names:
        table = tiny_db.table(name)
        twin.add_table(ColumnTable(
            name,
            {c: np.asarray(table[c]) for c in table.column_names},
        ))
    return twin


@pytest.fixture(scope="module")
def encoded_db(tiny_db):
    """The shared fixture database, which must hold encoded columns:
    an unencoded fixture would make every comparison here raw vs raw."""
    encoded = sum(
        1
        for name in tiny_db.table_names
        for column in tiny_db.table(name).column_names
        if tiny_db.table(name).encoding(column) is not None
    )
    assert encoded, "the fixture database holds no encoded columns"
    return tiny_db


@pytest.fixture(scope="module", params=ALL_ENGINES, ids=lambda cls: cls.name)
def engine(request):
    return request.param()


def assert_identical(encoded, raw, context: str) -> None:
    assert encoded.value == raw.value, context
    assert encoded.tuples == raw.tuples, context
    assert encoded.work == raw.work, context
    assert encoded.operator_work.keys() == raw.operator_work.keys(), context
    for name, profile in encoded.operator_work.items():
        assert profile == raw.operator_work[name], f"{context} operator={name}"


class TestSingleShot:
    @pytest.mark.parametrize(("method", "kwargs"), WORKLOADS, ids=WORKLOAD_IDS)
    def test_results_and_work_match(
        self, encoded_db, raw_twin, engine, method, kwargs
    ):
        encoded = getattr(engine, method)(encoded_db, **kwargs)
        raw = getattr(engine, method)(raw_twin, **kwargs)
        assert_identical(encoded, raw, f"{engine.name} {method} {kwargs}")

    def test_modeled_cycles_match(self, encoded_db, raw_twin, engine):
        """Identical work must model to identical cycles: the default
        cycle path never sees encoded widths."""
        profiler = MicroArchProfiler()
        for method in ("run_q1", "run_q6"):
            encoded = profiler.run(engine, method, encoded_db)
            raw = profiler.run(engine, method, raw_twin)
            assert encoded.cycles == raw.cycles, f"{engine.name} {method}"


class TestMorsels:
    """Encoded columns under ``row_range`` slicing: the codecs must
    produce per-morsel masks equal to slicing the decoded column, and
    the merged result must match the raw merged result."""

    @pytest.mark.parametrize(("method", "kwargs"), [
        ("run_q1", {}),
        ("run_q6", {}),
        ("run_selection", {"selectivity": 0.5}),
        ("run_groupby", {}),
    ], ids=["q1", "q6", "selection", "groupby"])
    @pytest.mark.parametrize("pieces", [2, 5])
    def test_merged_matches_raw_merged(
        self, encoded_db, raw_twin, engine, method, kwargs, pieces
    ):
        def merged(db):
            n_rows = engine.partition_rows(db, method, kwargs)
            partials = [
                getattr(engine, method)(db, row_range=row_range, **kwargs)
                for row_range in morsel_ranges(n_rows, pieces)
            ]
            return engine.merge_morsels(db, method, kwargs, partials)

        assert_identical(
            merged(encoded_db), merged(raw_twin),
            f"{engine.name} {method} pieces={pieces}",
        )


class TestAggToggle:
    """Code-domain aggregation on (the encoded database) and off (its
    raw twin, whose columns have no codes to aggregate) only changes the
    execution strategy: values and work are identical, and the twin
    reports every aggregate in a decoded mode."""

    @pytest.mark.parametrize(("method", "kwargs"), [
        ("run_q1", {}),
        ("run_groupby", {}),
        ("run_projection", {"degree": 1}),
        ("run_projection", {"degree": 4}),
    ], ids=["q1", "groupby", "projection-p1", "projection-p4"])
    def test_toggle_off_matches_toggle_on(
        self, encoded_db, raw_twin, engine, method, kwargs
    ):
        on = getattr(engine, method)(encoded_db, **kwargs)
        off = getattr(engine, method)(raw_twin, **kwargs)
        assert_identical(on, off, f"{engine.name} {method} code domain vs raw")
        decision = off.details.get("encoded_agg")
        if decision is not None:
            assert decision["code_domain"] == 0

    def test_pool_spawned_with_toggle_off_matches_single_shot(
        self, encoded_db, raw_twin
    ):
        """A pool over the raw twin decodes every slot and still merges
        to the code-domain single-shot result."""
        from repro.core.parallel import WorkerPool
        from repro.engines import TectorwiseEngine

        engine = TectorwiseEngine()
        single = engine.run_q1(encoded_db)
        assert single.details["encoded_agg"]["code_domain"] >= 2
        with WorkerPool(raw_twin, n_workers=2) as pool:
            pooled = pool.run_query(engine, "run_q1")
        assert_identical(pooled, single, "Tectorwise run_q1 [pool over raw twin]")
        assert pooled.details["encoded_agg"]["code_domain"] == 0


class TestPredicateMasks:
    """The shared scan kernels, checked directly against numpy on the
    decoded arrays for every encoded lineitem column."""

    def test_every_encoded_column_compares_exactly(self, encoded_db):
        lineitem = encoded_db.table("lineitem")
        n = lineitem.n_rows
        for name in lineitem.column_names:
            column = lineitem.encoding(name)
            if column is None:
                continue
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

    def test_q6_predicates_match_raw(self, encoded_db, raw_twin):
        for (label, got), (_, expected) in zip(
            q6_predicates(encoded_db), q6_predicates(raw_twin)
        ):
            np.testing.assert_array_equal(got, expected, err_msg=label)


class TestTransportEquivalence:
    """Payload round-trips (the shm/disk format) preserve execution."""

    def test_rebuilt_columns_execute_identically(self, encoded_db, engine):
        rebuilt = Database(
            name=encoded_db.name, scale_factor=encoded_db.scale_factor
        )
        for name in encoded_db.table_names:
            table = encoded_db.table(name)
            columns = {}
            for c in table.column_names:
                encoding = table.encoding(c)
                if encoding is None:
                    columns[c] = np.asarray(table[c])
                else:
                    meta, arrays = encoding.payload()
                    columns[c] = EncodedColumn.from_payload(c, meta, arrays)
            rebuilt.add_table(ColumnTable(name, columns))
        assert_identical(
            engine.run_q1(rebuilt), engine.run_q1(encoded_db),
            f"{engine.name} rebuilt q1",
        )
        assert_identical(
            engine.run_q6(rebuilt), engine.run_q6(encoded_db),
            f"{engine.name} rebuilt q6",
        )
