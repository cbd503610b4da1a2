"""Bit-identity equivalence matrix: sharded scatter-gather vs the
single-node oracle.

Every cell asserts *exact* equality of values and tuple counts --
``resp["value"] == jsonable(oracle.value)`` -- on all four engines,
all shard counts and both shard modes.  Exactness holds because every
merged aggregate travels as ExactSum units (or integer counts), whose
merge is associative and commutative, and the coordinator's finisher
rounds exactly once, globally.  (The established 1e-12 interpreter
tolerance is therefore met with margin: the margin is zero bits.)
"""

from __future__ import annotations

import pytest

from repro.engines import engine_by_name
from repro.serve import protocol
from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import Coordinator
from repro.sql import compile_sql
from repro.tpch.sql import GROUPBY_SQL, TPCH_SQL, projection_sql

Q18_FLAT = """\
SELECT l_orderkey, SUM(l_quantity) AS qty
FROM lineitem
GROUP BY l_orderkey
HAVING SUM(l_quantity) > 300;"""

QUERIES = {
    "Q1": TPCH_SQL["Q1"],
    "Q6": TPCH_SQL["Q6"],
    "groupby": GROUPBY_SQL,
    "projection": projection_sql(2),
    "Q18-compiled": Q18_FLAT,
}
ENGINES = ("Typer", "Tectorwise", "DBMS R", "DBMS C")


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_sharded_matches_single_node_exactly(
    sharded, tiny_db, query_name, engine_name
):
    _, coordinator = sharded
    sql = QUERIES[query_name]
    oracle = compile_sql(sql).execute(engine_by_name(engine_name), tiny_db)
    response = coordinator.execute(sql, engine=engine_name)
    assert response["status"] == "ok", response.get("error")
    assert response["route"] == "scatter"
    assert response["value"] == protocol.jsonable(oracle.value)
    assert response["tuples"] == oracle.tuples


def assert_matches_single_node(coordinator, db, sql, engine_name):
    oracle = compile_sql(sql).execute(engine_by_name(engine_name), db)
    response = coordinator.execute(sql, engine=engine_name)
    assert response["status"] == "ok", response.get("error")
    assert response["value"] == protocol.jsonable(oracle.value)
    assert response["tuples"] == oracle.tuples


def test_process_executor_nodes_match_single_node(tiny_db):
    """Nodes that fan their share out to their own worker pool stop as
    partials too (pool dispatch + ``finish=False``)."""
    with ShardCluster(
        tiny_db, n_shards=2, mode="hash", spawn="thread", node_executor="process"
    ) as cluster:
        coordinator = Coordinator(tiny_db, cluster)
        for query_name in ("Q1", "Q6"):
            assert_matches_single_node(
                coordinator, tiny_db, TPCH_SQL[query_name], "Typer"
            )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="hand-wired Q18 group-table state does not harmonise across hash "
    "shards (shape-broadcast error; olapbench KNOWN_FAILURES, ROADMAP item 1)",
)
@pytest.mark.parametrize("engine_name", ("Typer", "Tectorwise"))
def test_template_q18_over_two_hash_shards(tiny_db, engine_name):
    with ShardCluster(tiny_db, n_shards=2, mode="hash", spawn="thread") as cluster:
        assert_matches_single_node(
            Coordinator(tiny_db, cluster), tiny_db, TPCH_SQL["Q18"], engine_name
        )


def test_compiled_query_lowers_to_the_compiled_route(tiny_db):
    bound = compile_sql(Q18_FLAT)
    assert bound.method == "run_compiled"


class TestRouting:
    def test_dimension_only_query_routes_to_one_shard(self, sharded):
        cluster, coordinator = sharded
        response = coordinator.execute("SELECT COUNT(*) FROM orders;")
        assert response["status"] == "ok", response.get("error")
        assert response["route"] == "single"
        assert 0 <= response["shard"] < cluster.n_shards

    def test_single_shard_round_robin_rotates(self, sharded):
        cluster, coordinator = sharded
        if cluster.n_shards == 1:
            pytest.skip("round robin needs more than one shard")
        shards = {
            coordinator.execute("SELECT COUNT(*) FROM orders;")["shard"]
            for _ in range(cluster.n_shards * 2)
        }
        assert len(shards) == cluster.n_shards

    def test_scatter_reports_every_shard(self, sharded):
        cluster, coordinator = sharded
        response = coordinator.execute(TPCH_SQL["Q6"])
        assert response["shards"] == cluster.n_shards

    def test_bad_sql_is_a_clean_error(self, sharded):
        _, coordinator = sharded
        response = coordinator.execute("SELECT nonsense FROM nowhere;")
        assert response["status"] == "error"
        assert response["error"]


class TestObservability:
    def test_node_counts_the_partials_it_serves(self, rollup_db):
        """``partial`` ops show up in a node's ``:stats`` and metrics,
        and the decisions its stages made in the same blocks a
        single-node service fills."""
        from repro.obs import parse_exposition
        from repro.serve.server import dispatch
        from repro.serve.service import QueryService, ServiceConfig
        from repro.shard import build_shards, wire

        shard = build_shards(rollup_db, 2, "hash")[0]
        node = QueryService(
            ServiceConfig(shard_node=True, scale_factor=0.0), db=shard
        )
        for method in ("run_groupby", "run_q1", "run_q6", "run_nope"):
            message = {**wire.encode_call(method, ()), "engine": "Tectorwise"}
            response = dispatch(node, message)
            expected = "error" if method == "run_nope" else "ok"
            assert response["status"] == expected, response
        stats = node.stats_snapshot()
        assert (stats["ok"], stats["errors"], stats["submitted"]) == (3, 1, 4)
        assert stats["latency"]["max_ms"] >= 0.0
        rollups = stats["rollups"]
        assert (rollups["routed"], rollups["fallbacks"]) == (1, 2)
        assert rollups["bytes_read"] > 0 and rollups["base_bytes_avoided"] > 0
        assert rollups["fallback_reasons"] == {
            "partial-not-a-global-sum": 1, "unsupported-method": 1,
        }
        samples = parse_exposition(node.metrics_text())
        queries = samples["repro_queries_total"]
        assert queries[(("engine", "Tectorwise"), ("status", "ok"))] == 3
        assert queries[(("engine", "Tectorwise"), ("status", "error"))] == 1
        assert samples["repro_query_latency_seconds_count"][
            (("engine", "Tectorwise"),)
        ] == 3
        assert samples["repro_rollup_routed_total"][()] == 1

    def test_latency_quantiles_have_paper_names(self, sharded):
        _, coordinator = sharded
        coordinator.execute(TPCH_SQL["Q6"])
        stats = coordinator.stats_snapshot()
        latency = stats["latency_quantiles_s"]
        assert latency, "at least one route should have latency"
        for quantiles in latency.values():
            assert set(quantiles) == {"p50", "p99", "p999"}

    def test_trace_carries_a_shard_span_per_shard(self, sharded):
        cluster, coordinator = sharded
        response = coordinator.execute(TPCH_SQL["Q6"], trace_query=True)
        assert response["status"] == "ok", response.get("error")
        rendered = response["trace"]

        def spans(node):
            yield node
            for child in node.get("children", ()):
                yield from spans(child)

        shard_spans = [s for s in spans(rendered) if s["name"] == "shard"]
        assert len(shard_spans) == cluster.n_shards
