"""Fault injection: kill a node mid-query, drop/delay its socket,
corrupt its partial -- and assert the failover machinery produces the
*same bits* the healthy cluster would, plus a clean error (never a
hang) once every replica of a shard is gone.
"""

from __future__ import annotations

import pytest

from repro.engines import engine_by_name
from repro.serve import protocol
from repro.shard.cluster import KILLED_EXIT_CODE, ShardCluster
from repro.shard.coordinator import Coordinator, CoordinatorConfig
from repro.shard.faults import FaultPlan
from repro.sql import compile_sql
from repro.tpch.sql import TPCH_SQL


@pytest.fixture(scope="module")
def q6_expected(tiny_db):
    oracle = compile_sql(TPCH_SQL["Q6"]).execute(engine_by_name("Typer"), tiny_db)
    return protocol.jsonable(oracle.value), oracle.tuples


def failover_counts(coordinator):
    snapshot = coordinator.metrics.snapshot()
    return dict(snapshot["repro_shard_failover_total"]["series"])


class TestThreadClusterFaults:
    """drop / delay / corrupt run on thread clusters: the faults live in
    the coordinator's client path, so no real process needs to die."""

    @pytest.mark.parametrize("kind", ["drop", "delay", "corrupt"])
    def test_fault_fails_over_bit_identically(self, tiny_db, q6_expected, kind):
        plan = FaultPlan()
        if kind == "delay":
            plan.delay(0, seconds=0.01)
        else:
            getattr(plan, kind)(0)
        with ShardCluster(
            tiny_db, n_shards=2, replicas=2, spawn="thread", faults=True
        ) as cluster:
            coordinator = Coordinator(tiny_db, cluster, fault_plan=plan)
            response = coordinator.execute(TPCH_SQL["Q6"])
            assert response["status"] == "ok", response.get("error")
            assert (response["value"], response["tuples"]) == q6_expected
            assert response["failovers"], "fault must surface as a failover"
            assert response["failovers"][0]["shard"] == 0

    def test_failover_metric_is_labelled(self, tiny_db, q6_expected):
        with ShardCluster(
            tiny_db, n_shards=2, replicas=2, spawn="thread", faults=True
        ) as cluster:
            coordinator = Coordinator(
                tiny_db, cluster, fault_plan=FaultPlan().corrupt(1)
            )
            response = coordinator.execute(TPCH_SQL["Q6"])
            assert response["status"] == "ok", response.get("error")
            counts = failover_counts(coordinator)
            # labels are (shard, reason-kind), in labelname order
            assert counts.get(("1", "corrupt-partial")) == 1.0

    def test_corrupt_partial_never_merges(self, tiny_db, q6_expected):
        """A mangled payload must fail the digest check on the
        coordinator, not deserialize into a wrong answer."""
        with ShardCluster(
            tiny_db, n_shards=2, replicas=2, spawn="thread", faults=True
        ) as cluster:
            coordinator = Coordinator(
                tiny_db, cluster, fault_plan=FaultPlan().corrupt(0)
            )
            response = coordinator.execute(TPCH_SQL["Q6"])
            assert response["status"] == "ok", response.get("error")
            assert (response["value"], response["tuples"]) == q6_expected
            reason = response["failovers"][0]["reason"]
            assert reason.startswith("corrupt-partial")
            assert "digest" in reason

    def test_all_replicas_down_is_a_clean_error(self, tiny_db):
        """Exhausting every replica of one shard reports which shard and
        why -- a bounded error response, not a hang or a stack trace."""
        plan = FaultPlan().drop(0, times=100)
        with ShardCluster(
            tiny_db, n_shards=2, replicas=1, spawn="thread", faults=True
        ) as cluster:
            coordinator = Coordinator(
                tiny_db,
                cluster,
                fault_plan=plan,
                config=CoordinatorConfig(backoff_base_s=0.001, backoff_max_s=0.002),
            )
            response = coordinator.execute(TPCH_SQL["Q6"])
            assert response["status"] == "error"
            assert "shard 0" in response["error"]
            assert "all replicas down" in response["error"]
            counts = coordinator.metrics.snapshot()
            assert counts["repro_shard_exhausted_total"]["series"].get(("0",)) == 1.0


class TestSingleRouteFailover:
    def test_dropped_replica_fails_over_on_the_single_route(self, tiny_db):
        """Dimension-only statements take the same failover loop as
        scattered ones: replica 0 dropped, replica 1 answers."""
        sql = "SELECT COUNT(*) FROM orders;"
        oracle = compile_sql(sql).execute(engine_by_name("Typer"), tiny_db)
        with ShardCluster(tiny_db, n_shards=1, replicas=2, spawn="thread") as cluster:
            coordinator = Coordinator(
                tiny_db, cluster, fault_plan=FaultPlan().drop(0)
            )
            response = coordinator.execute(sql)
            assert response["status"] == "ok", response.get("error")
            assert response["route"] == "single"
            assert response["value"] == protocol.jsonable(oracle.value)
            host, port = cluster.endpoints[0][0]
            assert response["failovers"] == [
                {"shard": 0, "endpoint": f"{host}:{port}", "reason": "drop-injected"}
            ]
            assert failover_counts(coordinator).get(("0", "drop-injected")) == 1.0


class TestProcessClusterFaults:
    """The production shape: real node processes over shm segments,
    killed with ``os._exit`` mid-conversation."""

    def test_killed_node_fails_over_bit_identically(self, tiny_db, q6_expected):
        with ShardCluster(
            tiny_db, n_shards=2, replicas=2, spawn="process", faults=True
        ) as cluster:
            coordinator = Coordinator(
                tiny_db, cluster, fault_plan=FaultPlan().kill(0)
            )
            response = coordinator.execute(TPCH_SQL["Q6"])
            assert response["status"] == "ok", response.get("error")
            assert (response["value"], response["tuples"]) == q6_expected
            assert response["failovers"][0]["shard"] == 0
            assert response["failovers"][0]["reason"].startswith("connection")
            counts = failover_counts(coordinator)
            assert counts.get(("0", "connection")) == 1.0
            # The kill was real: one node process died with the fault
            # exit code, and the cluster keeps answering without it.
            exit_codes = [process.exitcode for process in cluster._processes]
            assert KILLED_EXIT_CODE in exit_codes
            again = coordinator.execute(TPCH_SQL["Q6"])
            assert again["status"] == "ok", again.get("error")
            assert (again["value"], again["tuples"]) == q6_expected

    def test_unreplicated_kill_is_a_clean_error(self, tiny_db):
        with ShardCluster(
            tiny_db, n_shards=2, replicas=1, spawn="process", faults=True
        ) as cluster:
            coordinator = Coordinator(
                tiny_db,
                cluster,
                fault_plan=FaultPlan().kill(1),
                config=CoordinatorConfig(
                    attempt_timeout_s=5.0,
                    backoff_base_s=0.001,
                    backoff_max_s=0.002,
                ),
            )
            response = coordinator.execute(TPCH_SQL["Q6"])
            assert response["status"] == "error"
            assert "shard 1" in response["error"]
            assert "all replicas down" in response["error"]

    def test_kill_is_seen_by_the_very_next_attempt(self, tiny_db):
        """The injected kill returns only once the node is gone (EOF on
        the kill's own connection, after the ack), so the attempt that
        follows can never reach a node that is still on its way out:
        5 kills, each followed at once by a request, none answered."""
        with ShardCluster(
            tiny_db, n_shards=1, replicas=5, spawn="process", faults=True
        ) as cluster:
            coordinator = Coordinator(
                tiny_db, cluster, config=CoordinatorConfig(attempt_timeout_s=5.0)
            )
            for endpoint in cluster.endpoints[0]:
                assert coordinator._request(endpoint, {"op": "ping"})["status"] == "ok"
                coordinator._send_die(endpoint)
                with pytest.raises(OSError):
                    coordinator._request(endpoint, {"op": "ping"})
            for process in cluster._processes:
                process.join(timeout=5.0)
                assert process.exitcode == KILLED_EXIT_CODE


class TestFaultGating:
    def test_die_op_is_rejected_without_the_gate(self, tiny_db):
        """A cluster started without ``faults=True`` must refuse the die
        op: fault injection can never leak into a production cluster."""
        from repro.serve import protocol as proto
        import socket

        with ShardCluster(tiny_db, n_shards=1, spawn="thread") as cluster:
            host, port = cluster.endpoints[0][0]
            with socket.create_connection((host, port), timeout=10.0) as sock:
                stream = sock.makefile("rwb")
                stream.write(proto.encode({"op": "die"}))
                stream.flush()
                response = proto.decode(stream.readline())
            assert response["status"] == "error"
            assert "fault_ops" in response["error"]

    def test_overlapping_clusters_keep_their_own_gate(self, tiny_db, q6_expected):
        """The gate is each node's own ``ServiceConfig.fault_ops``:
        closing a ``faults=False`` cluster must not disarm a
        ``faults=True`` one that started after it, and the armed cluster
        must not arm any other shard-node service in the process."""
        from repro.serve.server import dispatch
        from repro.serve.service import QueryService, ServiceConfig

        plain = ShardCluster(tiny_db, n_shards=1, spawn="thread")
        try:
            with ShardCluster(
                tiny_db, n_shards=2, replicas=2, spawn="thread", faults=True
            ) as armed:
                plain.close()
                coordinator = Coordinator(
                    tiny_db, armed, fault_plan=FaultPlan().kill(0)
                )
                response = coordinator.execute(TPCH_SQL["Q6"])
                assert response["status"] == "ok", response.get("error")
                assert (response["value"], response["tuples"]) == q6_expected
                assert response["failovers"][0]["reason"].startswith("connection")

                bystander = QueryService(
                    ServiceConfig(workers=1, shard_node=True, scale_factor=0.0),
                    db=tiny_db,
                )
                refused = dispatch(bystander, {"op": "die"})
                assert refused["status"] == "error"
                assert "fault_ops" in refused["error"]
        finally:
            plain.close()

    def test_partial_op_requires_a_shard_node(self, tiny_db):
        from repro.serve.server import dispatch
        from repro.serve.service import QueryService, ServiceConfig

        service = QueryService(
            ServiceConfig(workers=1, scale_factor=0.0), db=tiny_db
        ).start()
        try:
            response = dispatch(service, {"op": "partial"})
            assert response["status"] == "error"
            assert "shard node" in response["error"]
        finally:
            service.stop()


@pytest.mark.parametrize(
    ("settings", "message"),
    [
        ({"default_engine": "Bogus"}, "unknown engine 'Bogus'"),
        ({"attempt_timeout_s": float("nan")}, "attempt_timeout_s"),
        ({"attempt_timeout_s": float("inf")}, "attempt_timeout_s"),
        ({"backoff_base_s": -0.01}, "backoff_base_s"),
        ({"backoff_base_s": float("nan")}, "backoff_base_s"),
        ({"backoff_max_s": -1.0}, "backoff_max_s"),
        ({"backoff_max_s": float("nan")}, "backoff_max_s"),
    ],
    ids=[
        "engine", "timeout-nan", "timeout-inf", "backoff-base-negative",
        "backoff-base-nan", "backoff-max-negative", "backoff-max-nan",
    ],
)
def test_config_that_would_fail_queries_is_rejected(settings, message):
    """Each setting would fail a query later (an unknown default engine
    every query that names none, a negative or NaN backoff the first
    failover's ``sleep``), so the config refuses it up front."""
    with pytest.raises(ValueError, match=message):
        CoordinatorConfig(**settings)
