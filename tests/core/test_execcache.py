"""Tests for the engine execution cache (:mod:`repro.core.execcache`)."""

import numpy as np
import pytest
from matrix.cells import assert_bit_identical

from repro import settings
from repro.core.execcache import CACHED_METHODS, EXECUTION_CACHE
from repro.core.profiler import MicroArchProfiler
from repro.engines import TectorwiseEngine, TyperEngine
from repro.sql.api import plan_sql
from repro.storage import ColumnTable, Database
from repro.tpch.dbgen import generate_database
from repro.tpch.sql import EXTENDED_TPCH_SQL


@pytest.fixture(autouse=True)
def fresh_cache():
    EXECUTION_CACHE.clear()
    yield
    EXECUTION_CACHE.clear()


@pytest.fixture(scope="module")
def db(db_factory):
    return db_factory(0.004, seed=19)


class TestMemoization:
    def test_second_run_is_served_from_cache(self, db):
        engine = TyperEngine()
        first = engine.run_projection(db, 2)
        assert "cached" not in first.details
        second = engine.run_projection(db, 2)
        assert second.details.get("cached") is True
        assert second.value == first.value
        assert second.tuples == first.tuples
        assert EXECUTION_CACHE.hits == 1

    def test_cache_discriminates_engines_and_args(self, db):
        TyperEngine().run_projection(db, 2)
        TectorwiseEngine().run_projection(db, 2)
        TyperEngine().run_projection(db, 3)
        TyperEngine().run_q6(db)
        assert EXECUTION_CACHE.hits == 0
        assert len(EXECUTION_CACHE) == 4

    def test_positional_and_keyword_calls_share_an_entry(self, db):
        engine = TyperEngine()
        engine.run_projection(db, 2)
        result = engine.run_projection(db, degree=2)
        assert result.details.get("cached") is True

    def test_distinct_databases_do_not_alias(self):
        a = generate_database(0.004, seed=101)
        b = generate_database(0.004, seed=102)
        engine = TyperEngine()
        result_a = engine.run_projection(a, 2)
        result_b = engine.run_projection(b, 2)
        assert EXECUTION_CACHE.hits == 0
        assert result_a.value != result_b.value

    def test_callers_cannot_poison_the_cache(self, db):
        engine = TyperEngine()
        first = engine.run_projection(db, 2)
        true_value = first.value
        first.value = -1.0
        first.work.instructions = -5.0
        second = engine.run_projection(db, 2)
        assert second.value == true_value
        assert second.work.instructions >= 0

    def test_cached_entries_are_isolated_between_hits(self, db):
        engine = TyperEngine()
        engine.run_projection(db, 2)
        hit_one = engine.run_projection(db, 2)
        hit_one.work.instructions = -7.0
        hit_two = engine.run_projection(db, 2)
        assert hit_two.work.instructions >= 0
        assert hit_one.work is not hit_two.work

    def test_operator_profiles_are_snapshotted(self, db):
        engine = TyperEngine()
        first = engine.run_join(db, "small")
        operators = first.operator_work
        if not operators:
            pytest.skip("engine records no operator profiles for joins")
        name, profile = next(iter(operators.items()))
        original = profile.instructions
        profile.instructions = -3.0
        second = engine.run_join(db, "small")
        assert second.operator_work[name].instructions == original

    def test_disable_env(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
        assert not settings.enabled("exec_cache")
        engine = TyperEngine()
        engine.run_projection(db, 2)
        result = engine.run_projection(db, 2)
        assert "cached" not in result.details
        assert len(EXECUTION_CACHE) == 0

    def test_third_party_subclasses_bypass_the_cache(self, db):
        class PatchedTyper(TyperEngine):
            def run_projection(self, db, degree, simd=False):
                result = super().run_projection(db, degree, simd=simd)
                result.value = float(result.value) * 2.0
                return result

        engine = PatchedTyper()
        doubled = engine.run_projection(db, 2)
        honest = TyperEngine().run_projection(db, 2)
        # The subclass's mutation must not leak into the first-party
        # entry, and the subclass itself must never be served a hit.
        assert doubled.value == pytest.approx(2.0 * honest.value)
        again = engine.run_projection(db, 2)
        assert again.value == pytest.approx(doubled.value)
        assert "cached" not in again.details

    def test_mutated_database_misses(self, db):
        from repro.storage import ColumnTable

        engine = TyperEngine()
        engine.run_projection(db, 2)
        db.add_table(ColumnTable("scratch", {"x": np.arange(3)}))
        try:
            engine.run_projection(db, 2)
            assert EXECUTION_CACHE.hits == 0
        finally:
            db._tables.pop("scratch")


#: One call of each memoized method.
CALLS = {
    "run_projection": {"degree": 2},
    "run_selection": {"selectivity": 0.1},
    "run_join": {"size": "large"},
    "run_groupby": {},
    "run_q1": {},
    "run_q6": {},
    "run_q9": {},
    "run_q18": {},
    "run_compiled": {"plan": plan_sql(EXTENDED_TPCH_SQL["Q3"])},
}


class TestHitIsACopy:
    @pytest.mark.parametrize("method", CACHED_METHODS)
    def test_hit_carries_the_types_of_a_fresh_run(self, tiny_db, method):
        """The hit's work and operator profiles equal the fresh run's as
        typed canonical JSON, not only under ``==``."""
        run = getattr(TyperEngine(), method)
        fresh = run(tiny_db, **CALLS[method])
        hit = run(tiny_db, **CALLS[method])
        assert hit.details.get("cached") is True
        assert_bit_identical(hit, fresh, f"{method} hit")


def _flipped(name: str) -> str:
    return "0" if settings.SETTINGS[name].default else "1"


_SWITCHES = [
    name for name, row in settings.SETTINGS.items() if isinstance(row.default, bool)
]


class TestModeKeys:
    """The cache key is engine class, method, database identity and
    call arguments -- no setting is part of it."""

    def test_key_is_engine_method_database_and_args(self, db):
        TyperEngine().run_projection(db, 2)
        key = (
            f"{TyperEngine.__module__}.{TyperEngine.__qualname__}",
            "run_projection",
            db.identity,
            (("degree", 2), ("simd", False)),
        )
        assert EXECUTION_CACHE.get(key) is not None

    def test_equal_content_under_another_identity_misses(self, db):
        """A database holding the very same column objects under another
        identity is never served the first one's entry."""
        twin = Database(name=db.name, scale_factor=db.scale_factor)
        for name in db.table_names:
            table = db.table(name)
            twin.add_table(ColumnTable(name, {c: table.column(c) for c in table.column_names}))
        assert twin.identity != db.identity
        engine = TyperEngine()
        first = engine.run_q6(db)
        again = engine.run_q6(twin)
        assert "cached" not in again.details
        assert again.value == first.value
        assert EXECUTION_CACHE.hits == 0
        assert len(EXECUTION_CACHE) == 2

    @pytest.mark.parametrize("name", _SWITCHES)
    def test_unkeyed_flip_does_not_split_the_key(self, db, monkeypatch, name):
        engine = TyperEngine()
        engine.run_q6(db)
        monkeypatch.setenv(settings.SETTINGS[name].env, _flipped(name))
        engine.run_q6(db)
        assert len(EXECUTION_CACHE) == 1

    def test_same_modes_still_hit(self, db, monkeypatch):
        """With every other switch away from its default, a repeated
        call is still served from the cache."""
        for name in _SWITCHES:
            if name != "exec_cache":
                monkeypatch.setenv(settings.SETTINGS[name].env, _flipped(name))
        engine = TyperEngine()
        engine.run_projection(db, 2)
        result = engine.run_projection(db, 2)
        assert result.details.get("cached") is True


class TestProfilerIntegration:
    def test_profile_reports_mark_cached_runs(self, db):
        profiler = MicroArchProfiler()
        engine = TyperEngine()
        fresh = profiler.run(engine, "run_projection", db, 2)
        assert fresh.cached is False
        served = profiler.run(engine, "run_projection", db, 2)
        assert served.cached is True
        assert served.cycles == pytest.approx(fresh.cycles)

    def test_as_row_carries_the_flag(self, db):
        profiler = MicroArchProfiler()
        engine = TyperEngine()
        profiler.run(engine, "run_q1", db)
        row = profiler.run(engine, "run_q1", db).as_row()
        assert row["cached"] is True

    def test_multicore_carries_the_flag(self, db):
        from repro.core.multicore import MulticoreModel

        profiler = MicroArchProfiler()
        model = MulticoreModel(profiler)
        engine = TyperEngine()
        engine.run_q6(db)
        run = model.run(engine, engine.run_q6(db), threads=2)
        assert run.per_thread.cached is True
