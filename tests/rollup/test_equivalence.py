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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parallel import WorkerPool
from repro.engines import ALL_ENGINES, TyperEngine, engine_by_name
from repro.rollup import (
    PartitionSpec,
    build_and_attach,
    partitioned_database,
    route,
)
from repro.tpch.schema import DATE_1998_09_02

#: Workloads the router understands, across the full engine matrix.
WORKLOADS = [
    ("run_projection", {"degree": 1}),
    ("run_projection", {"degree": 4}),
    ("run_groupby", {}),
    ("run_q1", {}),
]

WORKLOAD_IDS = ["proj1", "proj4", "groupby", "q1"]


def assert_identical(routed, baseline, label: str) -> None:
    __tracebackhint__ = True
    assert routed.workload == baseline.workload, label
    if isinstance(routed.value, dict):
        assert set(routed.value) == set(baseline.value), label
        for key in routed.value:
            assert routed.value[key] == baseline.value[key], f"{label}: {key}"
    else:
        assert routed.value == baseline.value, label


class TestEngineMatrix:
    """Every engine, every routable workload, thread-path route()."""

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES, ids=lambda c: c.name)
    @pytest.mark.parametrize("method,kwargs", WORKLOADS, ids=WORKLOAD_IDS)
    def test_routed_matches_base(self, engine_cls, method, kwargs, rollup_db):
        engine = engine_cls()
        routed, decision = route(rollup_db, engine, method, dict(kwargs))
        baseline = getattr(engine, method)(rollup_db, **kwargs)
        if routed is None:
            # The only legitimate matrix fallback: a finisher the
            # router cannot decompose into mergeable partials.
            assert decision["reason"] == "engine-finisher-not-decomposable"
            return
        assert decision["reason"] == "routed"
        assert_identical(routed, baseline, f"{engine.name} {method} {kwargs}")


class TestProcessPool:
    """Routing happens parent-side; workers never see the rollup path."""

    @pytest.fixture(scope="class")
    def pool(self, rollup_db):
        with WorkerPool(rollup_db, n_workers=2) as pool:
            yield pool

    @pytest.mark.parametrize("method,kwargs", WORKLOADS[:3], ids=WORKLOAD_IDS[:3])
    def test_pool_matches_single_shot(self, pool, rollup_db, method, kwargs):
        engine = TyperEngine()
        result = pool.run_query(engine, method, **kwargs)
        baseline = getattr(engine, method)(rollup_db, **kwargs)
        assert_identical(result, baseline, f"pool {method} {kwargs}")
        assert result.details["rollup"]["reason"] == "routed"

    def test_pool_fallback_still_matches(self, pool, rollup_db):
        engine = TyperEngine()
        result = pool.run_query(engine, "run_q6")
        baseline = engine.run_q6(rollup_db)
        assert_identical(result, baseline, "pool q6 fallback")
        assert result.details["rollup"]["reason"] == "unsupported-method"

    def test_pool_disabled_routing_still_matches(self, tiny_db):
        """A database without rollups is never routed; the pool still
        matches the direct engine call."""
        engine = TyperEngine()
        baseline = engine.run_groupby(tiny_db)
        with WorkerPool(tiny_db, n_workers=2) as pool:
            result = pool.run_query(engine, "run_groupby")
        assert_identical(result, baseline, "pool groupby, no rollups")
        assert "rollup" not in result.details


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
        routed, decision = route(db, engine, "run_groupby", {})
        assert decision["reason"] == "routed"
        assert_identical(routed, engine.run_groupby(db), "one-partition groupby")
        routed, decision = route(db, engine, "run_q1", {})
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
        for method, kwargs in WORKLOADS:
            routed, decision = route(db, engine, method, dict(kwargs))
            assert decision["reason"] == "routed", method
            assert_identical(
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
    routed, decision = route(db, engine, "run_groupby", {})
    assert decision["reason"] == "routed"
    assert_identical(routed, engine.run_groupby(db), "groupby")

    # Q1 routes only when the cutoff falls on a partition boundary.
    routed, decision = route(db, engine, "run_q1", {})
    baseline = engine.run_q1(db)
    if routed is not None:
        assert decision["reason"] == "routed"
        assert_identical(routed, baseline, "q1")
    else:
        assert decision["reason"] in (
            "partition-straddle",
            "engine-finisher-not-decomposable",
        )
