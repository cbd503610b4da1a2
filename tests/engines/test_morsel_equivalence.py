"""Morsel protocol: partial runs over any tiling of the row space must
merge to a result bit-identical to the single-shot run.

This is the correctness contract of :mod:`repro.core.parallel` -- the
process pool only parallelises what these properties guarantee.  Every
engine is exercised on every workload kind with several partitionings,
including a deliberately ragged one, and equality is exact (values,
tuples, work profiles, per-operator attribution), not approximate.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest
from generate_pinned_profiles import (
    PINNED_PROFILES,
    SCALE_FACTOR,
    SEED,
    cells_for,
    summarize,
)

from repro.engines import ALL_ENGINES, TectorwiseEngine, TyperEngine, engine_by_name
from repro.engines.morsel import MORSEL_ALIGN, morsel_ranges

#: (method, kwargs) pairs covering the acceptance matrix: the three
#: micro-benchmark kinds plus all four TPC-H queries.
WORKLOADS = [
    ("run_projection", {"degree": 2}),
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


def ragged_ranges(n_rows: int) -> list[tuple[int, int]]:
    """An intentionally unbalanced tiling: a minimal lead morsel, one
    huge middle, thin slivers at the end.  Cuts are aligned to
    :data:`MORSEL_ALIGN` (the protocol rejects anything else) but the
    piece sizes are wildly uneven -- the shape work stealing produces."""
    align = MORSEL_ALIGN
    cuts = sorted({
        0,
        min(align, n_rows),
        min(3 * align, n_rows),
        (n_rows * 3 // 5) // align * align,
        (n_rows - 1) // align * align,
        n_rows,
    })
    return list(zip(cuts[:-1], cuts[1:]))


def partitionings(n_rows: int) -> dict[str, list[tuple[int, int]]]:
    return {
        "whole": morsel_ranges(n_rows, 1),
        "halves": morsel_ranges(n_rows, 2),
        "sevenths": morsel_ranges(n_rows, 7),
        "ragged": ragged_ranges(n_rows),
    }


def assert_identical(merged, single, context: str) -> None:
    assert merged.value == single.value, context
    assert merged.tuples == single.tuples, context
    assert merged.work == single.work, context
    assert merged.operator_work.keys() == single.operator_work.keys(), context
    for name, profile in merged.operator_work.items():
        assert profile == single.operator_work[name], f"{context} operator={name}"


@pytest.fixture(scope="module", params=ALL_ENGINES, ids=lambda cls: cls.name)
def engine(request):
    return request.param()


class TestMorselMerge:
    @pytest.mark.parametrize(("method", "kwargs"), WORKLOADS, ids=WORKLOAD_IDS)
    def test_every_partitioning_matches_single_shot(
        self, tiny_db, engine, method, kwargs
    ):
        single = getattr(engine, method)(tiny_db, **kwargs)
        n_rows = engine.partition_rows(tiny_db, method, kwargs)
        for name, ranges in partitionings(n_rows).items():
            partials = [
                getattr(engine, method)(tiny_db, row_range=row_range, **kwargs)
                for row_range in ranges
            ]
            merged = engine.merge_morsels(tiny_db, method, kwargs, partials)
            assert_identical(
                merged, single, f"{engine.name} {method} {kwargs} [{name}]"
            )

    def test_run_tpch_routes_row_range(self, tiny_db, engine):
        """``run_tpch`` forwards ``row_range`` to the per-query methods,
        so the pool can dispatch the generic entry point too."""
        single = engine.run_tpch(tiny_db, "Q6")
        n_rows = tiny_db.table("lineitem").n_rows
        partials = [
            engine.run_tpch(tiny_db, "Q6", row_range=row_range)
            for row_range in morsel_ranges(n_rows, 3)
        ]
        merged = engine.merge_morsels(tiny_db, "run_q6", {}, partials)
        assert_identical(merged, single, f"{engine.name} run_tpch Q6")

    def test_partials_survive_pickling(self, tiny_db, engine):
        """Partials cross process boundaries pickled; the merge must not
        depend on in-process object identity."""
        import pickle

        single = engine.run_q1(tiny_db)
        n_rows = tiny_db.table("lineitem").n_rows
        partials = [
            pickle.loads(pickle.dumps(engine.run_q1(tiny_db, row_range=row_range)))
            for row_range in morsel_ranges(n_rows, 4)
        ]
        merged = engine.merge_morsels(tiny_db, "run_q1", {}, partials)
        assert_identical(merged, single, f"{engine.name} pickled partials")


#: Q9 and join-large WorkProfiles (total and per operator, every field)
#: of Typer and Tectorwise at SF 0.01, seed 7, recorded at the commit
#: before the hash-table probe became a chain walk.  The figure digests
#: cover the same numbers end to end; this localises a break to the
#: probe's ``comparisons`` / ``extra_walk`` / ``found``.
PINNED_JOIN_PROFILES = Path(__file__).with_name("pinned_join_profiles.json")

JOIN_WORKLOADS = {"Q9": ("run_q9", {}), "join-large": ("run_join", {"size": "large"})}


def profile_fields(result) -> dict:
    return {
        "work": dataclasses.asdict(result.work),
        "operators": {
            name: dataclasses.asdict(profile)
            for name, profile in result.operator_work.items()
        },
    }


class TestPinnedJoinProfiles:
    @pytest.mark.parametrize("workload", JOIN_WORKLOADS)
    @pytest.mark.parametrize("engine_cls", (TyperEngine, TectorwiseEngine), ids=lambda c: c.name)
    @pytest.mark.parametrize("tiling", ("whole", "ragged"))
    def test_profiles_equal_pinned(self, db_factory, engine_cls, workload, tiling):
        db = db_factory(0.01, seed=7)
        engine = engine_cls()
        method, kwargs = JOIN_WORKLOADS[workload]
        n_rows = engine.partition_rows(db, method, kwargs)
        partials = [
            getattr(engine, method)(db, row_range=row_range, **kwargs)
            for row_range in partitionings(n_rows)[tiling]
        ]
        merged = engine.merge_morsels(db, method, kwargs, partials)
        pinned = json.loads(PINNED_JOIN_PROFILES.read_text())[engine.name][workload]
        got = profile_fields(merged)
        assert got["operators"].keys() == pinned["operators"].keys()
        for name, fields in pinned["operators"].items():
            assert got["operators"][name] == fields, f"operator={name}"
        assert got["work"] == pinned["work"]


PINNED = json.loads(PINNED_PROFILES.read_text())


class TestPinnedProfiles:
    """Every engine x workload x argument cell against the digests
    ``generate_pinned_profiles.py`` recorded from the reference commit:
    the single-shot run and the ragged tiling must both reproduce the
    label, value, tuples and every WorkProfile, total and per operator."""

    @pytest.mark.parametrize(
        ("engine_name", "cell"),
        [(name, cell) for name, cells in PINNED.items() for cell in cells],
    )
    def test_cell_equals_pinned(self, db_factory, engine_name, cell):
        db = db_factory(SCALE_FACTOR, seed=SEED)
        engine = engine_by_name(engine_name)
        pinned = PINNED[engine_name][cell]
        method, kwargs = next(
            (method, kwargs)
            for name, method, kwargs in cells_for(engine, db)
            if name == cell
        )
        single = getattr(engine, method)(db, **kwargs)
        n_rows = engine.partition_rows(db, method, kwargs)
        ragged = engine.merge_morsels(db, method, kwargs, [
            getattr(engine, method)(db, row_range=row_range, **kwargs)
            for row_range in ragged_ranges(n_rows)
        ])
        for tiling, result in (("single-shot", single), ("ragged", ragged)):
            got = summarize(result)
            # A finisher may report more than the reference did.
            assert set(got["details"]) >= set(pinned["details"]), tiling
            for field in ("label", "value", "tuples", "work", "operators"):
                assert got[field] == pinned[field], f"{tiling} {field}"


class TestMergeAssociativity:
    """``WorkProfile.merge_partial`` folds must not depend on grouping:
    the pool's workers pre-merge their own morsels locally before the
    parent folds the per-worker results, so ``(a + b) + c`` must equal
    ``a + (b + c)``."""

    def _partial_profiles(self, db, engine, pieces: int = 3):
        n_rows = db.table("lineitem").n_rows
        return [
            engine.run_q1(db, row_range=row_range).work
            for row_range in morsel_ranges(n_rows, pieces)
        ]

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda cls: cls.name)
    def test_merge_partial_is_associative(self, tiny_db, engine_cls):
        a, b, c = self._partial_profiles(tiny_db, engine_cls())

        left = copy.deepcopy(a)
        left.merge_partial(copy.deepcopy(b))
        left.merge_partial(copy.deepcopy(c))

        bc = copy.deepcopy(b)
        bc.merge_partial(copy.deepcopy(c))
        right = copy.deepcopy(a)
        right.merge_partial(bc)

        assert left == right

    def test_protocol_rejects_degenerate_ranges(self, tiny_db):
        """The protocol forbids empty and misaligned morsels outright:
        the ledger never hands them out, and rejecting them here keeps
        congruence bugs from hiding behind zero-row no-ops."""
        engine = ALL_ENGINES[0]()
        n_rows = tiny_db.table("lineitem").n_rows
        for bad in ((0, 0), (n_rows, n_rows), (-64, 64), (0, n_rows + 64)):
            with pytest.raises(ValueError, match="row_range"):
                engine.run_q6(tiny_db, row_range=bad)
        with pytest.raises(ValueError, match="aligned"):
            engine.run_q6(tiny_db, row_range=(1, n_rows))
