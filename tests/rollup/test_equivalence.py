"""Routed rollup execution must be bit-identical to base execution.

The router's contract mirrors the pruning and encoding layers: when a
query is answered from a rollup, *nothing observable in the value*
changes -- the finished aggregate equals the base-table scan bit for
bit, for every engine, in the thread path and through the process
pool.  When a partitioning cannot prove the predicate (straddles,
misaligned columns), the router must decline with a reason rather than
return an approximation.  A hypothesis sweep extends the check to
arbitrary break placements, including breaks that leave partitions
empty or put every row in one partition.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from matrix.cells import STATEMENTS, assert_bit_identical
from matrix.suites import cases, cells

from repro.engines import ALL_ENGINES, TyperEngine, engine_by_name
from repro.rollup import (
    PartitionSpec,
    build_and_attach,
    partitioned_database,
    route,
)
from repro.tpch.schema import DATE_1998_09_02

def route_call(db, engine, method, kwargs):
    """``route`` with its decision attached where ``run_call`` puts
    it, so the assertion applies the routed difference."""
    result, decision = route(db, engine, method, dict(kwargs))
    if result is not None:
        result.details["rollup"] = decision
    return result, decision


class TestEngineMatrix:
    """Every engine, every routable workload, thread-path route()."""

    @cases("rollup::test_routed_matches_base")
    def test_routed_matches_base(self, matrix, cells):
        matrix.check(cells)


class TestProcessPool:
    """Routing happens parent-side; workers never see the rollup path."""

    @cases("rollup::test_pool_matches_single_shot")
    def test_pool_matches_single_shot(self, matrix, cells):
        matrix.check(cells)

    def test_pool_fallback_still_matches(self, matrix):
        matrix.check(cells("rollup::test_pool_fallback_still_matches"))

    def test_pool_disabled_routing_still_matches(self, matrix):
        """A database without rollups is never routed; the pool still
        matches the direct engine call."""
        matrix.check(cells("rollup::test_pool_disabled_routing_still_matches"))


class TestEdges:
    def test_all_rows_in_one_partition(self, tiny_db):
        # A break beyond the data range: every row lands in partition 0
        # and partition 1 is empty.  Predicate-free queries still route
        # bit-identically; Q1 must *decline* (the lone non-empty
        # partition straddles the cutoff) rather than approximate.
        db = partitioned_database(
            tiny_db, PartitionSpec("l_shipdate", (99999.0,))
        )
        build_and_attach(db)
        engine = TyperEngine()
        routed, decision = route_call(db, engine, "run_groupby", {})
        assert decision["reason"] == "routed"
        assert_bit_identical(routed, engine.run_groupby(db), "one-partition groupby")
        routed, decision = route_call(db, engine, "run_q1", {})
        assert routed is None
        assert decision["reason"] == "partition-straddle"

    def test_many_empty_partitions(self, tiny_db):
        db = partitioned_database(
            tiny_db,
            PartitionSpec(
                "l_shipdate", (1.0, 2.0, 3.0, DATE_1998_09_02 + 0.5, 90000.0)
            ),
        )
        build_and_attach(db)
        engine = TyperEngine()
        for name in ("p1", "p4", "groupby", "Q1"):
            method, kwargs = STATEMENTS[name].method, dict(STATEMENTS[name].kwargs)
            routed, decision = route_call(db, engine, method, dict(kwargs))
            assert decision["reason"] == "routed", method
            assert_bit_identical(
                routed, getattr(engine, method)(db, **kwargs), method
            )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    breaks=st.lists(
        st.floats(min_value=1500.0, max_value=3500.0, allow_nan=False),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    engine_name=st.sampled_from([cls.name for cls in ALL_ENGINES]),
)
def test_arbitrary_breaks_route_or_decline(tiny_db, breaks, engine_name):
    """Property: for ANY partitioning of l_shipdate, the router either
    returns a bit-identical answer or declines with a reason -- it never
    returns a wrong value."""
    db = partitioned_database(
        tiny_db, PartitionSpec("l_shipdate", tuple(sorted(breaks)))
    )
    build_and_attach(db)
    engine = engine_by_name(engine_name)

    # Predicate-free workloads must always route regardless of breaks.
    routed, decision = route_call(db, engine, "run_groupby", {})
    assert decision["reason"] == "routed"
    assert_bit_identical(routed, engine.run_groupby(db), "groupby")

    # Q1 routes only when the cutoff falls on a partition boundary.
    routed, decision = route_call(db, engine, "run_q1", {})
    baseline = engine.run_q1(db)
    if routed is not None:
        assert decision["reason"] == "routed"
        assert_bit_identical(routed, baseline, "q1")
    else:
        assert decision["reason"] in (
            "partition-straddle",
            "engine-finisher-not-decomposable",
        )
