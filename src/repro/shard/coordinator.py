"""The scatter-gather coordinator.

One query comes in as SQL; the coordinator lowers it **once** (plan
LRU), derives its :func:`~repro.sql.lower.partition_binding`, and
routes:

- **scatter** -- the call drives over the sharded fact table: the
  normalized bound call is wire-encoded once and sent to every shard
  concurrently; each shard answers with a checksummed *partial*
  (state, work, tuples, row range), and the coordinator finishes the
  gathered partials with ``Engine.merge_morsels`` against the **full**
  database (finishers need global structures: group tables, selection
  quantiles, reference values).  Merged shard states are exact
  (ExactSum / integer / set merges are associative and commutative),
  so values and tuple counts are bit-identical to a single-node run
  for any shard count and either sharding mode.
- **single** -- the call never reads the fact table (dimension-only
  joins): dimensions are fully replicated, so any one shard answers
  it; shards take turns round-robin.
- anything that reads the fact table without driving over it is
  refused with a clean error naming the driving table.

**Failover state machine** (per shard, per query)::

    attempt(replica r) --ok--> gathered
        | transport error / timeout / corrupt partial
        v
    repro_shard_failover_total{shard,reason}++ ; backoff (bounded,
    doubling) ; r = (r + 1) % replicas  -- up to max_rounds * replicas
    attempts, then AllReplicasDown -> clean STATUS_ERROR response.

A deterministic node error (the shard *answered* with an error status
for a ``partial`` op) does not fail over: every replica of the shard
would answer the same, so the coordinator surfaces it immediately.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

from repro.obs import Tracer, histogram_quantiles, trace
from repro.obs.clock import DEFAULT_CLOCK
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.serve import protocol
from repro.serve.protocol import STATUS_ERROR, STATUS_OK
from repro.shard import wire
from repro.shard.faults import mangle_payload
from repro.shard.partition import FACT_TABLE
from repro.sql import PlanCache
from repro.sql.lower import partition_binding


class ShardError(RuntimeError):
    """A scatter-gather query failed at the coordinator."""


class AllReplicasDown(ShardError):
    """Every replica of one shard failed within the retry budget."""

    def __init__(self, shard_id: int, reasons: list):
        self.shard_id = shard_id
        self.reasons = list(reasons)
        attempts = ", ".join(
            f"{endpoint[0]}:{endpoint[1]} ({reason})"
            for endpoint, reason in self.reasons
        )
        super().__init__(
            f"shard {shard_id}: all replicas down after "
            f"{len(self.reasons)} attempts [{attempts}]"
        )


@dataclass(frozen=True)
class CoordinatorConfig:
    """Tunables of one :class:`Coordinator`."""

    default_engine: str = "Typer"
    #: Socket/read timeout of one shard attempt.
    attempt_timeout_s: float = 30.0
    #: Each replica is tried at most this many times per query.
    max_rounds: int = 2
    #: Bounded exponential backoff between failed attempts.
    backoff_base_s: float = 0.02
    backoff_max_s: float = 0.25
    plan_cache_size: int = 64

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be > 0")


class Coordinator:
    """Scatter-gather front end over a :class:`~repro.shard.cluster.ShardCluster`."""

    def __init__(
        self,
        db,
        cluster,
        config: CoordinatorConfig | None = None,
        fault_plan=None,
        clock=None,
        sleep=time.sleep,
    ):
        self.db = db
        self.cluster = cluster
        self.config = config or CoordinatorConfig()
        self.fault_plan = fault_plan
        self.clock = clock or DEFAULT_CLOCK
        self._sleep = sleep
        self._engines: dict[str, object] = {}
        self._plans = PlanCache(self.config.plan_cache_size)
        self._rr = 0
        self._rr_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_queries = m.counter(
            "repro_shard_queries_total",
            "Coordinator queries by route and outcome",
            ("route", "status"),
        )
        self._m_failover = m.counter(
            "repro_shard_failover_total",
            "Failed shard attempts that moved on to another replica",
            ("shard", "reason"),
        )
        self._m_exhausted = m.counter(
            "repro_shard_exhausted_total",
            "Queries that found every replica of a shard down",
            ("shard",),
        )
        self._m_partials = m.counter(
            "repro_shard_partials_total",
            "Partials gathered per shard",
            ("shard",),
        )
        self._m_latency = m.histogram(
            "repro_shard_latency_seconds",
            "End-to-end coordinator latency",
            ("route",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_shards = m.gauge("repro_shard_count", "Shards in the cluster")
        self._m_shards.set(cluster.n_shards)

    def engine(self, name: str):
        if name not in self._engines:
            from repro.engines import engine_by_name

            self._engines[name] = engine_by_name(name)
        return self._engines[name]

    # -- public API ----------------------------------------------------
    def execute(
        self,
        sql: str,
        engine: str | None = None,
        options: dict | None = None,
        trace_query: bool = False,
    ) -> dict:
        """One query, protocol-shaped response (status/value/tuples/...)."""
        engine_name = engine or self.config.default_engine
        started = self.clock.now()
        tracer = token = None
        if trace_query:
            tracer = Tracer(self.clock)
            tracer.start("query", sql=sql, engine=engine_name, coordinator=True)
            token = trace.activate(tracer, tracer.root)
        route = "scatter"
        try:
            response = self._execute(sql, engine_name, dict(options or {}))
            route = response.get("route", route)
        except ShardError as exc:
            response = {"status": STATUS_ERROR, "error": str(exc)}
        except Exception as exc:  # lowering/merge errors -> clean response
            response = {
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            if token is not None:
                trace.deactivate(token)
        elapsed = self.clock.now() - started
        response.setdefault("route", route)
        response["latency_ms"] = elapsed * 1e3
        self._m_queries.labels(
            route=response["route"], status=response["status"]
        ).inc()
        self._m_latency.labels(route=response["route"]).observe(elapsed)
        if tracer is not None:
            tracer.finish()
            response["trace"] = tracer.render()
        return response

    def _execute(self, sql: str, engine_name: str, options: dict) -> dict:
        from repro.core.parallel import normalized_call
        from repro.sql.errors import SqlError

        try:
            bound = self._plans.compile(sql)
        except SqlError as exc:
            return {"status": STATUS_ERROR, "error": str(exc)}
        binding = partition_binding(bound)
        if binding.table != FACT_TABLE:
            if FACT_TABLE in binding.referenced:
                return {
                    "status": STATUS_ERROR,
                    "error": (
                        f"cannot scatter {bound.workload!r}: it partitions "
                        f"{binding.table!r} but also reads the sharded fact "
                        f"table {FACT_TABLE!r}; shard by the driving table "
                        "to distribute this query"
                    ),
                }
            return self._single(sql, engine_name, options)
        engine_obj = self.engine(engine_name)
        merged = bound.call_kwargs()
        merged.update(options)
        try:
            method, kwargs_items = normalized_call(
                engine_obj, bound.method, bound.args, merged
            )
        except ValueError as exc:
            return {"status": STATUS_ERROR, "error": str(exc)}
        result, failovers = self._scatter_gather(
            engine_obj, method, kwargs_items, engine_name
        )
        return {
            "status": STATUS_OK,
            "route": "scatter",
            "workload": bound.workload,
            "method": bound.method,
            "engine": engine_name,
            "value": protocol.jsonable(result.value),
            "tuples": result.tuples,
            "shards": self.cluster.n_shards,
            "failovers": failovers,
        }

    # -- scatter route -------------------------------------------------
    def _scatter_gather(self, engine_obj, method, kwargs_items, engine_name):
        message = {**wire.encode_call(method, kwargs_items), "engine": engine_name}
        outcomes: list = [None] * self.cluster.n_shards
        threads = []
        for shard_id in range(self.cluster.n_shards):
            thread = threading.Thread(
                target=self._gather_one,
                args=(shard_id, message, outcomes),
                name=f"scatter-{shard_id}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        failovers: list[dict] = []
        down: list[AllReplicasDown] = []
        partials = []
        for shard_id, outcome in enumerate(outcomes):
            partial, attempts, t0, t1, error = outcome
            if error is not None and not isinstance(error, AllReplicasDown):
                raise error
            if trace.active():
                trace.record(
                    "shard",
                    t0,
                    t1,
                    shard=shard_id,
                    attempts=len(attempts),
                    failed_over=len(attempts) - 1,
                    outcome="ok" if partial is not None else "down",
                )
            failovers.extend(_failed(shard_id, attempts))
            if partial is None:
                down.append(error)
            else:
                self._m_partials.labels(shard=str(shard_id)).inc()
                partials.append(partial)
        if down:
            raise down[0]
        result = self._merge(engine_obj, method, kwargs_items, partials)
        return result, failovers

    def _gather_one(self, shard_id: int, message: dict, outcomes: list) -> None:
        def accept(response: dict):
            if response.get("status") != STATUS_OK:
                # The node answered: a deterministic error, identical
                # on every replica.  Surface it.
                raise ShardError(
                    f"shard {shard_id} rejected the plan: "
                    f"{response.get('error', 'unknown error')}"
                )
            plan = self.fault_plan
            if plan is not None and plan.take("corrupt", shard_id):
                response = mangle_payload(response)
            return wire.decode_partial(response)

        t0 = self.clock.now()
        partial = error = None
        try:
            partial, attempts = self._with_failover(shard_id, message, accept)
        except AllReplicasDown as exc:
            attempts, error = exc.reasons, exc
        except ShardError as exc:
            attempts, error = [], exc
        outcomes[shard_id] = (partial, attempts, t0, self.clock.now(), error)

    def _with_failover(self, shard_id: int, message: dict, accept):
        """The failover loop for one shard (see the module docstring).

        Returns ``(accept(response), attempts)`` for the first replica
        that answers and whose answer ``accept`` takes; ``accept``
        raises :class:`~repro.shard.wire.CorruptPartial` to reject an
        answer like a dead replica, anything else to give up.
        """
        plan = self.fault_plan
        attempts: list = []
        rotation = list(self.cluster.endpoints[shard_id]) * self.config.max_rounds
        for failures, endpoint in enumerate(rotation):
            reason = None
            if plan is not None and plan.take("kill", shard_id):
                self._send_die(endpoint)
            if plan is not None and plan.take("drop", shard_id):
                reason = "drop-injected"
            elif plan is not None:
                delay = plan.take("delay", shard_id)
                if delay is not None:
                    self._sleep(delay["seconds"])
                    reason = "delay-injected"
            if reason is None:
                try:
                    response = self._request(endpoint, message)
                except (OSError, ValueError) as exc:
                    reason = f"connection: {type(exc).__name__}"
                else:
                    try:
                        accepted = accept(response)
                    except wire.CorruptPartial as exc:
                        reason = f"corrupt-partial: {exc}"
                    else:
                        attempts.append((endpoint, "ok"))
                        return accepted, attempts
            attempts.append((endpoint, reason))
            self._m_failover.labels(
                shard=str(shard_id), reason=reason.split(":", 1)[0]
            ).inc()
            if trace.active():
                now = self.clock.now()
                trace.record(
                    "failover",
                    now,
                    now,
                    shard=shard_id,
                    endpoint=f"{endpoint[0]}:{endpoint[1]}",
                    reason=reason,
                )
            backoff = self.config.backoff_base_s * (2.0 ** failures)
            self._sleep(min(backoff, self.config.backoff_max_s))
        self._m_exhausted.labels(shard=str(shard_id)).inc()
        raise AllReplicasDown(shard_id, attempts)

    def _request(self, endpoint, message: dict) -> dict:
        with socket.create_connection(
            endpoint, timeout=self.config.attempt_timeout_s
        ) as sock:
            stream = sock.makefile("rwb")
            stream.write(protocol.encode(message))
            stream.flush()
            line = stream.readline()
        if not line:
            raise ConnectionError("shard node closed the connection")
        return protocol.decode(line)

    def _send_die(self, endpoint) -> None:
        """Deliver an injected kill and see the node die: the node acks
        *before* it exits, so after the ack wait (bounded by the attempt
        timeout) for EOF on the same connection.  Only then is the
        attempt that follows sure to meet a dead node, like any real
        crash, rather than race the node's last instructions."""
        try:
            with socket.create_connection(
                endpoint, timeout=self.config.attempt_timeout_s
            ) as sock:
                stream = sock.makefile("rwb")
                stream.write(protocol.encode({"op": "die"}))
                stream.flush()
                if protocol.decode(stream.readline()).get("dying"):
                    stream.read()
        except (OSError, ValueError):
            pass

    # -- exact cross-shard merge ---------------------------------------
    def _merge(self, engine_obj, method, kwargs_items, partials):
        """Finish gathered shard partials with the single-node mergers.

        Two shard-boundary adjustments first:

        - per-shard row ranges are offset into disjoint global spans so
          the merge order is deterministic (merge values are order-
          independent anyway -- this keeps congruence checks happy);
        - top-level ``const_*`` state entries (e.g. the per-slot
          encoded-aggregation morph decision) may legitimately differ
          across shards (each shard re-encodes its own subset), where a
          single node's morsels must agree.  They are popped before the
          merge and reinstated only when every shard agrees; finishers
          treat them as optional.
        """
        offset = 0
        for shard_id, partial in enumerate(partials):
            lo, hi = partial.details["row_range"]
            partial.details["row_range"] = (offset + lo, offset + hi)
            offset += self.cluster.shard_rows[shard_id]
        _harmonize_patterns([partial.work for partial in partials])
        operator_maps = [
            partial.details.get("operators")
            for partial in partials
            if partial.details.get("operators") is not None
        ]
        if len(operator_maps) == len(partials) and operator_maps:
            for name in operator_maps[0]:
                if all(name in ops for ops in operator_maps):
                    _harmonize_patterns([ops[name] for ops in operator_maps])
        popped: list[dict] = []
        keys = set()
        for partial in partials:
            state = partial.details["partial"]
            consts = {
                key: state.pop(key)
                for key in [k for k in state if isinstance(k, str) and k.startswith("const_")]
            }
            popped.append(consts)
            keys.update(consts)
        agreed = {}
        for key in keys:
            values = [consts[key] for consts in popped if key in consts]
            if len(values) == len(partials) and all(
                _const_equal(values[0], value) for value in values[1:]
            ):
                agreed[key] = values[0]
        if agreed and partials:
            partials[0].details["partial"].update(agreed)
        with trace.span("gather_merge", shards=len(partials)):
            return engine_obj.merge_morsels(self.db, method, kwargs_items, partials)

    # -- single route --------------------------------------------------
    def _single(self, sql: str, engine_name: str, options: dict) -> dict:
        """Dimension-only queries run on one shard (fully replicated);
        shards take turns, with the same failover loop."""
        with self._rr_lock:
            shard_id = self._rr % self.cluster.n_shards
            self._rr += 1
        message: dict = {"sql": sql, "engine": engine_name}
        if options:
            message["options"] = options
        response, attempts = self._with_failover(
            shard_id, message, lambda response: response
        )
        response = dict(response)
        response["route"] = "single"
        response["shard"] = shard_id
        failed = _failed(shard_id, attempts)
        if failed:
            response["failovers"] = failed
        return response

    # -- introspection -------------------------------------------------
    def stats_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        latency = snapshot.get("repro_shard_latency_seconds", {})
        labelnames = latency.get("labelnames", ())
        quantiles = {}
        for labels, series in latency.get("series", {}).items():
            series_name = ",".join(
                f"{name}={value}" for name, value in zip(labelnames, labels)
            )
            quantiles[series_name] = {
                "p" + f"{q * 100:g}".replace(".", ""): value
                for q, value in histogram_quantiles(
                    latency["buckets"], series
                ).items()
            }
        return {
            "shards": self.cluster.n_shards,
            "replicas": self.cluster.replicas,
            "mode": self.cluster.mode,
            "spawn": self.cluster.spawn,
            "shard_rows": list(self.cluster.shard_rows),
            "latency_quantiles_s": quantiles,
        }

    def metrics_text(self) -> str:
        return self.metrics.render()


def _failed(shard_id: int, attempts: list) -> list[dict]:
    """The ``failovers`` response entries of one shard's attempts."""
    return [
        {
            "shard": shard_id,
            "endpoint": f"{endpoint[0]}:{endpoint[1]}",
            "reason": reason,
        }
        for endpoint, reason in attempts
        if reason != "ok"
    ]


def _harmonize_patterns(works) -> None:
    """Align random-access pattern *parameters* across shard works.

    Morsels of one node share every per-database structure, so the
    partial-merge congruence check rightly demands identical pattern
    parameters.  Shards build their own structures (a shard-local group
    table has a shard-sized working set), so the same pattern can carry
    different parameters per shard.  Rewrite each diverging pattern to
    the parameters of the largest-count shard -- exactly the primary
    :func:`repro.core.workprofile._merge_random` would pick -- so the
    cross-node merge models the dominant structure and counts still add
    exactly.  (Cross-shard *work* identity is not claimed; values and
    tuple counts are.)
    """
    from repro.core.workprofile import RandomAccessPattern

    if len({len(work.random_patterns) for work in works}) != 1:
        return  # not congruent; let the merge raise its own error
    for index in range(len(works[0].random_patterns)):
        patterns = [work.random_patterns[index] for work in works]
        primary = max(patterns, key=lambda pattern: pattern.count)
        target = (primary.working_set_bytes, primary.dependent, primary.mlp_hint)
        for work, pattern in zip(works, patterns):
            if pattern.count > 0 and (
                pattern.working_set_bytes, pattern.dependent, pattern.mlp_hint
            ) != target:
                work.random_patterns[index] = RandomAccessPattern(
                    pattern.name, pattern.count, *target
                )


def _const_equal(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False
