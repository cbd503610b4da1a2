"""Tests for subsumption matching and routing (:mod:`repro.rollup.router`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engines import ALL_ENGINES, TyperEngine, TectorwiseEngine
from repro.rollup import (
    PartitionSpec,
    attempt,
    build_and_attach,
    build_rollup,
    partitioned_database,
    profile_for,
    route,
)
from repro.rollup.build import RollupSpec
from repro.rollup.table import AggregateSpec
from repro.tpch.schema import DATE_1998_09_02

#: Q1-aligned breaks (mirrors the ``rollup_db`` fixture): the upper
#: break sits just past the cutoff so every partition decides wholly.
ALIGNED_BREAKS = (2100.0, 2300.0, DATE_1998_09_02 + 0.5)


@pytest.fixture(scope="module", params=ALL_ENGINES, ids=lambda cls: cls.name)
def engine(request):
    return request.param()


class TestProfiles:
    def test_projection_profile(self):
        profile = profile_for("run_projection", {"degree": 3})
        assert profile.expressions == ("proj:3",)
        assert profile.keys == () and not profile.needs_groups

    def test_q1_profile_carries_shipdate_atom(self):
        profile = profile_for("run_q1", {})
        (atom,) = profile.atoms
        assert atom.column == "l_shipdate" and atom.op == "le"
        assert atom.threshold == float(DATE_1998_09_02)
        assert profile.needs_groups and profile.hpe_only

    def test_unroutable_calls_have_no_profile(self):
        assert profile_for("run_q6", {}) is None
        assert profile_for("run_join", {"size": "small"}) is None
        assert profile_for("run_projection", {"degree": 2, "simd": True}) is None
        assert profile_for("run_q1", {"row_range": (0, 10)}) is None


class TestRoutedBitIdentity:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_projection(self, engine, rollup_db, degree):
        result, decision = route(
            rollup_db, engine, "run_projection", {"degree": degree}
        )
        assert decision["reason"] == "routed"
        baseline = engine.run_projection(rollup_db, degree)
        assert result.value == baseline.value
        assert result.workload == baseline.workload

    def test_groupby(self, engine, rollup_db):
        result, decision = route(rollup_db, engine, "run_groupby", {})
        assert decision["reason"] == "routed"
        assert result.value == engine.run_groupby(rollup_db).value

    @pytest.mark.parametrize("engine_cls", [TyperEngine, TectorwiseEngine],
                             ids=lambda c: c.name)
    def test_q1_on_hpe_engines(self, engine_cls, rollup_db):
        engine = engine_cls()
        result, decision = route(rollup_db, engine, "run_q1", {})
        assert decision["reason"] == "routed"
        baseline = engine.run_q1(rollup_db)
        assert result.value == baseline.value
        assert result.details["groups"] == baseline.details["groups"]

    def test_decision_accounting(self, rollup_db):
        result, decision = route(rollup_db, TyperEngine(), "run_q1", {})
        lineitem = rollup_db.table("lineitem")
        assert decision["rollup_used"] is True
        assert decision["rows_read"] == result.tuples > 0
        assert decision["base_rows_avoided"] == lineitem.n_rows
        assert 0 < decision["bytes_read"] < decision["base_bytes_avoided"]
        assert decision["partitions_included"] <= decision["partitions_total"]
        assert result.work.seq_read_bytes == decision["bytes_read"]


class TestFallbackReasons:
    def test_unsupported_method(self, rollup_db):
        result, decision = route(rollup_db, TyperEngine(), "run_q6", {})
        assert result is None and decision["reason"] == "unsupported-method"

    def test_interpreter_q1_finisher_not_decomposable(self, rollup_db):
        from repro.engines import engine_by_name

        result, decision = route(rollup_db, engine_by_name("DBMS R"), "run_q1", {})
        assert result is None
        assert decision["reason"] == "engine-finisher-not-decomposable"

    def test_no_rollup(self, tiny_db):
        result, decision = route(tiny_db, TyperEngine(), "run_groupby", {})
        assert result is None and decision["reason"] == "no-rollup"

    def test_keys_not_subsumed(self, tiny_db):
        db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
        build_and_attach(db, RollupSpec(name="keyless", keys=()))
        result, decision = route(db, TyperEngine(), "run_q1", {})
        assert result is None and decision["reason"] == "keys-not-subsumed"

    def test_aggregate_missing(self, tiny_db):
        db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
        build_and_attach(
            db,
            RollupSpec(
                name="partial",
                aggregates=(
                    AggregateSpec("sum_qty", "sum", "col:l_quantity"),
                    AggregateSpec("row_count", "count"),
                ),
            ),
        )
        result, decision = route(db, TyperEngine(), "run_q1", {})
        assert result is None and decision["reason"] == "aggregate-missing"

    def test_count_missing(self, tiny_db):
        db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
        build_and_attach(
            db,
            RollupSpec(
                name="no-count",
                aggregates=(
                    AggregateSpec("sum_qty", "sum", "col:l_quantity"),
                    AggregateSpec("sum_base_price", "sum", "proj:1"),
                    AggregateSpec("sum_disc_price", "sum", "disc_price"),
                    AggregateSpec("sum_charge", "sum", "charge"),
                ),
            ),
        )
        result, decision = route(db, TyperEngine(), "run_q1", {})
        assert result is None and decision["reason"] == "count-missing"

    def test_unpartitioned_rollup_cannot_answer_predicates(self, tiny_db):
        build_and_attach(tiny_db)
        try:
            result, decision = route(tiny_db, TyperEngine(), "run_q1", {})
            assert result is None and decision["reason"] == "unpartitioned"
            # ... but predicate-free queries still route.
            result, decision = route(tiny_db, TyperEngine(), "run_groupby", {})
            assert decision["reason"] == "routed"
            assert result.value == TyperEngine().run_groupby(tiny_db).value
        finally:
            tiny_db._rollups.clear()

    def test_partitioning_missing(self, tiny_db):
        db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
        build_and_attach(db)
        db.table("lineitem").set_partitioning(None)
        result, decision = route(db, TyperEngine(), "run_q1", {})
        assert result is None and decision["reason"] == "partitioning-missing"

    def test_predicate_not_partition_aligned(self, tiny_db):
        db = partitioned_database(tiny_db, PartitionSpec("l_quantity", (25.0,)))
        build_and_attach(db)
        result, decision = route(db, TyperEngine(), "run_q1", {})
        assert result is None
        assert decision["reason"] == "predicate-not-partition-aligned"

    def test_partition_straddle(self, tiny_db):
        # A break below the Q1 cutoff leaves the upper partition with
        # rows on both sides of the predicate: undecidable from stats.
        db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", (2400.0,)))
        build_and_attach(db)
        result, decision = route(db, TyperEngine(), "run_q1", {})
        assert result is None and decision["reason"] == "partition-straddle"


class TestAttempt:
    def test_inactive_when_disabled(self, rollup_db, monkeypatch):
        monkeypatch.setenv("REPRO_ROLLUPS", "0")
        assert not settings.enabled("rollups")
        result, decision = attempt(
            rollup_db, TyperEngine(), "run_groupby", {}, executor="thread"
        )
        assert result is None and decision is None

    def test_inactive_without_rollups(self, tiny_db):
        result, decision = attempt(
            tiny_db, TyperEngine(), "run_groupby", {}, executor="thread"
        )
        assert result is None and decision is None

    def test_hit_carries_decision_in_details(self, rollup_db):
        result, decision = attempt(
            rollup_db, TyperEngine(), "run_groupby", {}, executor="thread"
        )
        assert result is not None
        assert result.details["rollup"] is decision
        assert decision["rollup_used"] is True

    def test_fallback_returns_reasoned_decision(self, rollup_db):
        result, decision = attempt(
            rollup_db, TyperEngine(), "run_q6", {}, executor="thread"
        )
        assert result is None
        assert decision["reason"] == "unsupported-method"


    def test_unfinished_route_has_the_finished_decision_and_span(self, rollup_db):
        """``finish=False`` (a shard node's share) stops before the one
        rounding but decides, reports and traces exactly alike."""
        from repro.obs import Tracer, trace

        def traced(finish):
            tracer = Tracer()
            tracer.start("test")
            token = trace.activate(tracer, tracer.root)
            try:
                result, decision = attempt(
                    rollup_db, engine, "run_groupby", {}, "shard", finish=finish
                )
            finally:
                trace.deactivate(token)
            (span,) = tracer.render()["children"]
            return result, decision, (span["name"], span["attrs"])

        engine = TyperEngine()
        finished, full, finished_span = traced(True)
        partial, stopped, partial_span = traced(False)
        assert stopped == full and stopped["bytes_read"] > 0
        assert partial_span == finished_span
        assert partial_span[0] == "route" and partial_span[1]["rollup_used"] is True
        assert partial.details["rollup"] is stopped
        baseline = engine.run_groupby(rollup_db)
        merged = engine.merge_morsels(rollup_db, "run_groupby", {}, [partial])
        assert merged.value == finished.value == baseline.value
        assert merged.tuples == baseline.tuples  # base rows, not rollup rows

    def test_unfinished_route_declines_grouped_output(self, rollup_db):
        result, decision = route(
            rollup_db, TyperEngine(), "run_q1", {}, finish=False
        )
        assert result is None
        assert decision["reason"] == "partial-not-a-global-sum"


class TestPartitionSelection:
    def test_only_included_partitions_contribute(self, tiny_db):
        """With the Q1 cutoff as a break, the routed Q1 must equal a
        manual scan of just the rows below the cutoff."""
        db = partitioned_database(
            tiny_db, PartitionSpec("l_shipdate", (DATE_1998_09_02 + 0.5,))
        )
        build_and_attach(db)
        engine = TyperEngine()
        result, decision = route(db, engine, "run_q1", {})
        assert decision["reason"] == "routed"
        assert decision["partitions_included"] == 1
        assert decision["partitions_total"] == 2
        assert result.value == engine.run_q1(db).value
