"""Per-layer metrics of the traced run, measured from outside ``src/``.

Two sources feed every number:

- **the workload's own requests**: each is a ``request`` span of the
  harness with the span tree the service (or coordinator) returned
  grafted beneath it, so admission, execute, prune, route, chooser,
  serialize, shard and morsel times are read from the program's spans,
  not timed a second time;
- **probes**: direct calls into one layer's public functions, each
  inside a harness span.  A layer that is not on the workload's path
  (the shard wire on ``scan_thread``, say) is probed with four fixed
  statements on the workload's own database, so every time reported is
  a measurement.  Ratios and counts of a layer the workload never
  touches are 0.

``PER_LAYER`` is the catalogue; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import os
import shutil
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from spans import SpanRecorder, self_times
from workloads import ENGINES, FigureOps, Op, ShardRunner, ServiceRunner, TcpRunner, opened

#: (name, unit, better)
PER_LAYER = (
    ("sql.parse_ms", "ms", "lower"),
    ("sql.plan_ms", "ms", "lower"),
    ("sql.lower_ms", "ms", "lower"),
    ("serve.plan_cache_hit_ratio", "ratio", "higher"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.serialize_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.execute_share", "ratio", "higher"),
    ("rollup.route_ms", "ms", "lower"),
    ("rollup.routed_ratio", "ratio", "higher"),
    ("rollup.rows_read_per_op", "rows", "lower"),
    ("pruning.plan_ms", "ms", "lower"),
    ("pruning.morsels_pruned_ratio", "ratio", "higher"),
    ("pruning.rows_pruned_ratio", "ratio", "higher"),
    ("storage.bytes_scanned_per_op", "bytes", "lower"),
    ("storage.encoded_ratio", "ratio", "higher"),
    ("storage.decode_mb_s", "MB/s", "higher"),
    ("storage.zonemap_build_ms", "ms", "lower"),
    ("storage.shm_export_ms", "ms", "lower"),
    ("engines.execute_ms", "ms", "lower"),
    ("engines.ns_per_row", "ns", "lower"),
    ("engines.merge_ms", "ms", "lower"),
    ("engines.code_domain_agg_ratio", "ratio", "higher"),
    ("compile.build_ms", "ms", "lower"),
    ("compile.cache_hit_ratio", "ratio", "higher"),
    ("compile.execute_ms", "ms", "lower"),
    ("compile.q1v_over_q1", "ratio", "lower"),
    ("compile.chooser_ms", "ms", "lower"),
    ("compile.chooser_rank_agreement", "ratio", "higher"),
    ("parallel.dispatch_overhead_ms", "ms", "lower"),
    ("parallel.worker_busy_share", "ratio", "higher"),
    ("parallel.morsels_per_op", "count", "lower"),
    ("parallel.steal_ratio", "ratio", "lower"),
    ("shard.scatter_overhead_ms", "ms", "lower"),
    ("shard.gather_merge_ms", "ms", "lower"),
    ("shard.wire_encode_ms", "ms", "lower"),
    ("shard.wire_decode_ms", "ms", "lower"),
    ("shard.wire_bytes_per_op", "bytes", "lower"),
    ("shard.failover_total", "count", "lower"),
    ("profiler.price_ms", "ms", "lower"),
    ("hardware.replay_events_s", "1/s", "higher"),
    ("hardware.gshare_events_s", "1/s", "higher"),
    ("analysis.engine_exec_share", "ratio", "lower"),
    ("analysis.execcache_hit_ratio", "ratio", "higher"),
    ("tpch.dbgen_cold_s", "s", "lower"),
    ("tpch.dbcache_load_s", "s", "lower"),
    ("obs.tracing_overhead_ratio", "ratio", "lower"),
)

#: A class slower than this is timed twice (best of two) instead of
#: three times (median): the probes share the run's time budget.
SLOW_CALL_S = 0.1
PROBE_REPEATS = 5


@dataclass
class Context:
    workload: object
    db: object
    runner: object
    source: object
    recorder: SpanRecorder
    plain: object
    traced: object
    load_s: float


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def probe_ops(db, engines=("Typer",)) -> list:
    """Four cheap statements that exist on any TPC-H database: two
    hand-wired scans, one pruning-eligible selection, one compiled join."""
    from repro.tpch import TPCH_SQL, projection_sql, selection_sql
    from repro.tpch.sql import EXTENDED_TPCH_SQL

    statements = {
        "Q6": TPCH_SQL["Q6"],
        "projection-1": projection_sql(1),
        "selection@10%": selection_sql(0.10, db),
        "Q12": EXTENDED_TPCH_SQL["Q12"],
    }
    return [
        Op(f"probe:{label}/{engine}", sql, engine)
        for label, sql in statements.items()
        for engine in engines
    ]


def layer_ops(ctx: Context) -> list:
    """The workload's own classes where it has SQL classes, else the
    fixed probe statements."""
    if isinstance(ctx.source, FigureOps):
        return probe_ops(ctx.db)
    return ctx.source.round(0)


# ----------------------------------------------------------------------
# From request spans
# ----------------------------------------------------------------------
def request_metrics(spans: list, over_tcp: bool) -> dict:
    """Aggregate the grafted service / coordinator trees of every
    ``request`` span in ``spans``."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def below(span, name):
        found = []
        stack = list(children.get(span["id"], ()))
        while stack:
            node = stack.pop()
            if node["name"] == name:
                found.append(node)
            stack.extend(children.get(node["id"], ()))
        return found

    service = {k: [] for k in (
        "wire", "admission", "overhead", "serialize", "chooser", "prune", "route", "bytes",
    )}
    pool = {"dispatch": [], "busy": 0.0, "window": 0.0, "morsels": [], "stolen": 0}
    shard = {"scatter": [], "gather": []}
    execute_total = request_total = 0.0
    for request in (s for s in spans if s["name"] == "request"):
        roots = [c for c in children.get(request["id"], ()) if c["name"] == "query"]
        if not roots:
            continue
        root = roots[0]
        request_total += _ms(request)
        shards = below(root, "shard")
        if shards:
            shard["scatter"].append(_ms(root) - max(_ms(s) for s in shards))
            shard["gather"] += [_ms(s) for s in below(root, "gather_merge")]
            continue
        executes = below(root, "execute")
        if not executes:
            continue  # rejected or failed before executing
        execute = executes[0]
        execute_total += _ms(execute)
        service["wire"].append(_ms(request) - _ms(root))
        service["overhead"].append(_ms(root) - _ms(execute))
        for name in ("admission", "serialize", "chooser", "prune", "route"):
            service[name] += [_ms(s) for s in below(root, name)]
        attrs = execute["attrs"]
        service["bytes"].append(
            float(attrs.get("streamed_bytes", 0.0)) + float(attrs.get("random_bytes", 0.0))
        )
        morsels = below(execute, "morsel")
        if attrs.get("executor") == "process" and morsels:
            per_worker: dict = {}
            for morsel in morsels:
                worker = morsel["attrs"].get("worker")
                per_worker[worker] = per_worker.get(worker, 0.0) + _ms(morsel)
            pool["dispatch"].append(_ms(execute) - max(per_worker.values()))
            pool["busy"] += sum(per_worker.values())
            pool["window"] += _ms(execute) * 2  # process_workers=2
            pool["morsels"].append(len(morsels))
            pool["stolen"] += sum(bool(m["attrs"].get("stolen")) for m in morsels)

    metrics: dict = {}
    if service["overhead"]:
        metrics.update({
            "serve.queue_wait_ms": _mean(service["admission"]),
            "serve.overhead_ms": _mean(service["overhead"]),
            "serve.serialize_ms": _mean(service["serialize"]),
            "serve.execute_share": _ratio(execute_total, request_total),
            "storage.bytes_scanned_per_op": _mean(service["bytes"]),
            "compile.chooser_ms": _mean(service["chooser"]),
        })
        if over_tcp:
            metrics["serve.wire_ms"] = _mean(service["wire"])
        if service["prune"]:
            metrics["pruning.plan_ms"] = _mean(service["prune"])
        if service["route"]:
            metrics["rollup.route_ms"] = _mean(service["route"])
    if pool["dispatch"]:
        metrics.update({
            "parallel.dispatch_overhead_ms": _mean(pool["dispatch"]),
            "parallel.worker_busy_share": _ratio(pool["busy"], pool["window"]),
            "parallel.morsels_per_op": _mean(pool["morsels"]),
            "parallel.steal_ratio": _ratio(pool["stolen"], sum(pool["morsels"])),
        })
    if shard["scatter"]:
        metrics.update({
            "shard.scatter_overhead_ms": _mean(shard["scatter"]),
            "shard.gather_merge_ms": _mean(shard["gather"]),
        })
    return metrics


def self_time_shares(spans: list) -> dict:
    """Where the workload's request time went: span name -> its self
    time (duration minus what its children cover) as a share of all
    request time.  Probe spans are left out."""
    own = [s for s in spans if isinstance(s["request"], int)]
    selves = self_times(own)
    total = sum(s["end"] - s["start"] for s in own if s["name"] == "request")
    shares: dict = {}
    for span in own:
        shares[span["name"]] = shares.get(span["name"], 0.0) + selves[span["id"]]
    return {
        name: value / total
        for name, value in sorted(shares.items(), key=lambda item: -item[1])
        if total
    }


def stats_metrics(snapshot: dict, lineitem_rows: int) -> dict:
    """Ratios the service counts itself (``stats_snapshot()``)."""
    if not snapshot:
        return {}
    plan, rollups, pruning = snapshot["plan_cache"], snapshot["rollups"], snapshot["pruning"]
    encoded, storage = snapshot["encoded_agg"], snapshot["storage"]
    cache = snapshot["compile"]["cache"]
    morsels = pruning["morsels_pruned"] + pruning["morsels_scanned"]
    slots = encoded["aggregates_code_domain"] + encoded["aggregates_decoded"]
    return {
        "serve.plan_cache_hit_ratio": _ratio(plan["hits"], plan["hits"] + plan["misses"]),
        "rollup.routed_ratio": _ratio(rollups["routed"], snapshot["ok"]),
        "rollup.rows_read_per_op": _ratio(rollups["rows_read"], snapshot["ok"]),
        "pruning.morsels_pruned_ratio": _ratio(pruning["morsels_pruned"], morsels),
        "pruning.rows_pruned_ratio": _ratio(
            pruning["rows_pruned"], pruning["queries"] * lineitem_rows
        ),
        "storage.encoded_ratio": storage.get("compression_ratio", 0.0),
        "engines.code_domain_agg_ratio": _ratio(encoded["aggregates_code_domain"], slots),
        "compile.cache_hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
    }


def traced_calls(recorder: SpanRecorder, runner, ops) -> list:
    """Send each op once untraced (warm) and ``PROBE_REPEATS`` times
    traced; returns the spans recorded."""
    first = len(recorder.spans)
    for op in ops:
        runner.call(op, False)
    for _ in range(PROBE_REPEATS):
        for op in ops:
            recorder.request(f"probe:{op.cls}", op.cls, lambda: runner.call(op, True))
    return recorder.spans[first:]


# ----------------------------------------------------------------------
# Probes: direct calls into one layer, each inside a harness span
# ----------------------------------------------------------------------
def provides(*names):
    """Mark a probe with the metrics it measures, so ``collect`` can
    skip it when the workload's own traffic already gave all of them."""
    def mark(probe):
        probe.provides = names
        return probe
    return mark


def timed_call(recorder: SpanRecorder, name: str, fn, **attrs) -> float:
    """Seconds ``fn()`` takes: median of three, or the better of two
    when one call is slow."""
    samples = []
    while len(samples) < 3:
        with recorder.span(name, **attrs) as span:
            fn()
        samples.append(span["end"] - span["start"])
        if len(samples) == 2 and samples[0] >= SLOW_CALL_S:
            return min(samples)
    return statistics.median(samples)


@provides("sql.parse_ms", "sql.plan_ms", "sql.lower_ms")
def probe_sql(ctx: Context) -> dict:
    from repro.sql import Planner, lower, parse_sql

    parse, plan, lowered = [], [], []
    for sql in dict.fromkeys(op.sql for op in layer_ops(ctx)):
        parse.append(timed_call(ctx.recorder, "sql.parse", lambda: parse_sql(sql)))
        select = parse_sql(sql)
        plan.append(timed_call(ctx.recorder, "sql.plan", lambda: Planner().plan(select, sql)))
        tree = Planner().plan(select, sql)
        lowered.append(timed_call(ctx.recorder, "sql.lower", lambda: lower(tree, sql)))
    return {
        "sql.parse_ms": _mean(parse) * 1e3,
        "sql.plan_ms": _mean(plan) * 1e3,
        "sql.lower_ms": _mean(lowered) * 1e3,
    }


@provides(
    "engines.execute_ms", "engines.ns_per_row", "compile.execute_ms", "compile.build_ms",
    "compile.q1v_over_q1", "compile.chooser_rank_agreement",
)
def probe_engines(ctx: Context) -> dict:
    """Direct ``BoundQuery.execute`` per class; compiled classes count
    towards ``compile.*``, hand-wired ones towards ``engines.*``."""
    from repro.compile.chooser import ChooserError, choose
    from repro.compile.program import clear_compile_cache, compiled_program
    from repro.engines import engine_by_name
    from repro.sql import compile_sql
    from repro.tpch import TPCH_SQL

    from workloads import q1_variant

    rec, db = ctx.recorder, ctx.db
    classes = {(op.sql, op.engine): op for op in layer_ops(ctx) + probe_ops(db, ENGINES)}
    seconds: dict = {}
    totals = {"run_compiled": [0.0, 0], "engines": [0.0, 0]}
    bounds: dict = {}
    for (sql, engine), op in classes.items():
        if sql not in bounds:
            bounds[sql] = compile_sql(sql)
        bound = bounds[sql]
        tuples = []
        seconds[sql, engine] = timed_call(
            rec, "engines.execute",
            lambda: tuples.append(bound.execute(engine_by_name(engine), db).tuples),
            cls=op.cls, method=bound.method,
        )
        total = totals["run_compiled" if bound.method == "run_compiled" else "engines"]
        total[0] += seconds[sql, engine]
        total[1] += tuples[-1]

    agree = []
    for sql, bound in bounds.items():
        if not all((sql, engine) in seconds for engine in ENGINES):
            continue
        try:
            predicted = choose(db, bound)["predicted_cycles"]
        except ChooserError:
            continue
        agree.append(
            (predicted["Typer"] < predicted["Tectorwise"])
            == (seconds[sql, "Typer"] < seconds[sql, "Tectorwise"])
        )

    typer = engine_by_name("Typer")
    q1 = compile_sql(TPCH_SQL["Q1"])
    q1v = compile_sql(q1_variant())
    q1_s = timed_call(rec, "engines.execute", lambda: q1.execute(typer, db), cls="Q1/Typer")
    q1v_s = timed_call(rec, "engines.execute", lambda: q1v.execute(typer, db), cls="Q1v/Typer")

    builds = []
    for bound in bounds.values():
        if bound.method == "run_compiled":
            clear_compile_cache()
            with rec.span("compile.build") as span:
                compiled_program(bound.plan)
            builds.append(_ms(span))
    return {
        "engines.execute_ms": totals["engines"][0] * 1e3,
        "engines.ns_per_row": _ratio(totals["engines"][0] * 1e9, totals["engines"][1]),
        "compile.execute_ms": totals["run_compiled"][0] * 1e3,
        "compile.build_ms": _mean(builds),
        "compile.q1v_over_q1": q1v_s / q1_s,
        "compile.chooser_rank_agreement": _mean(agree),
    }


@provides("engines.merge_ms")
def probe_merge(ctx: Context) -> dict:
    """``merge_morsels`` over two half-table partials of hand-wired Q1."""
    from repro.core.parallel import normalized_call
    from repro.engines import engine_by_name
    from repro.engines.morsel import morsel_ranges
    from repro.sql import compile_sql
    from repro.tpch import TPCH_SQL

    engine = engine_by_name("Typer")
    bound = compile_sql(TPCH_SQL["Q1"])
    method, items = normalized_call(engine, bound.method, bound.args, bound.call_kwargs())
    halves = morsel_ranges(engine.partition_rows(ctx.db, method, items), 2)

    def merge():
        partials = [
            getattr(engine, method)(ctx.db, row_range=half, **dict(items)) for half in halves
        ]
        with ctx.recorder.span("engines.merge") as span:
            engine.merge_morsels(ctx.db, method, items, partials)
        return _ms(span)

    return {"engines.merge_ms": statistics.median(merge() for _ in range(3))}


@provides("storage.decode_mb_s", "storage.zonemap_build_ms", "storage.shm_export_ms")
def probe_storage(ctx: Context) -> dict:
    from repro.storage import shm
    from repro.storage.zonemap import build_zone_map

    rec = ctx.recorder
    lineitem = ctx.db.table("lineitem")
    encoded = [c for c in map(lineitem.encoding, lineitem.column_names) if c is not None]
    decoded_bytes = decode_s = 0.0
    for column in encoded:
        decode_s += timed_call(
            rec, "storage.decode", lambda: column.decode_range(0, len(column)),
            column=column.name,
        )
        decoded_bytes += column.nbytes
    zonemap_s = sum(
        timed_call(
            rec, "storage.zonemap_build",
            lambda: build_zone_map(lineitem.encoding(name) or lineitem[name]), column=name,
        )
        for name in ("l_shipdate", "l_discount", "l_quantity")
    )

    def export():
        with shm.export_database(ctx.db):
            pass

    return {
        "storage.decode_mb_s": _ratio(decoded_bytes / 1e6, decode_s),
        "storage.zonemap_build_ms": zonemap_s * 1e3,
        "storage.shm_export_ms": timed_call(rec, "storage.shm_export", export) * 1e3,
    }


@provides("rollup.route_ms")
def probe_route(ctx: Context) -> dict:
    """``router.attempt`` on the probe statements: the decline cost on a
    database without rollups."""
    from repro.core.parallel import normalized_call
    from repro.engines import engine_by_name
    from repro.rollup import router
    from repro.sql import compile_sql

    engine = engine_by_name("Typer")
    samples = []
    for op in probe_ops(ctx.db):
        bound = compile_sql(op.sql)
        method, items = normalized_call(engine, bound.method, bound.args, bound.call_kwargs())
        samples.append(timed_call(
            ctx.recorder, "rollup.route",
            lambda: router.attempt(ctx.db, engine, method, dict(items), executor="thread"),
        ))
    return {"rollup.route_ms": _mean(samples) * 1e3}


@provides(
    "serve.queue_wait_ms", "serve.overhead_ms", "serve.serialize_ms", "serve.wire_ms",
    "serve.execute_share", "serve.plan_cache_hit_ratio", "storage.bytes_scanned_per_op",
    "storage.encoded_ratio", "compile.chooser_ms", "compile.cache_hit_ratio", "pruning.plan_ms",
)
def probe_service(ctx: Context) -> dict:
    """The probe statements through a thread service behind TCP."""
    with opened(TcpRunner, ctx.db) as runner:
        spans = traced_calls(ctx.recorder, runner, probe_ops(ctx.db))
        metrics = request_metrics(spans, over_tcp=True)
        metrics.update(stats_metrics(runner.stats(), ctx.db.table("lineitem").n_rows))
    return metrics


@provides(
    "parallel.dispatch_overhead_ms", "parallel.worker_busy_share",
    "parallel.morsels_per_op", "parallel.steal_ratio",
)
def probe_parallel(ctx: Context) -> dict:
    """The probe statements through a two-worker process pool."""
    with opened(lambda db: ServiceRunner(db, executor="process"), ctx.db) as runner:
        spans = traced_calls(ctx.recorder, runner, probe_ops(ctx.db))
    return request_metrics(spans, over_tcp=False)


@provides(
    "shard.scatter_overhead_ms", "shard.gather_merge_ms", "shard.wire_encode_ms",
    "shard.wire_decode_ms", "shard.wire_bytes_per_op", "shard.failover_total",
)
def probe_shard(ctx: Context) -> dict:
    """Scatter-gather and the partial wire codec.  ``scan_shard2`` is
    probed on its own cluster and classes, other workloads on a probe
    cluster with the probe statements."""
    if isinstance(ctx.runner, ShardRunner):
        return _wire_metrics(ctx.recorder, ctx.runner, layer_ops(ctx))
    ops = probe_ops(ctx.db)
    with opened(ShardRunner, ctx.db) as runner:
        metrics = request_metrics(traced_calls(ctx.recorder, runner, ops), over_tcp=False)
        metrics.update(_wire_metrics(ctx.recorder, runner, ops))
    return metrics


def _wire_metrics(rec: SpanRecorder, runner, ops) -> dict:
    """Encode and decode the partial each op produces on shard 0."""
    from repro.core.parallel import normalized_call
    from repro.engines import engine_by_name
    from repro.serve.service import QueryService, ServiceConfig
    from repro.shard import wire
    from repro.sql import compile_sql

    node = QueryService(
        ServiceConfig(shard_node=True, scale_factor=0.0), db=runner.cluster.shards[0]
    )
    encode, decode, size = [], [], []
    for op in ops:
        engine = engine_by_name(op.engine)
        bound = compile_sql(op.sql)
        method, items = normalized_call(engine, bound.method, bound.args, bound.call_kwargs())
        partial = node.execute_partial(method, items, engine=op.engine)
        message: dict = {}
        encode.append(timed_call(
            rec, "shard.wire_encode", lambda: message.update(wire.encode_partial(partial)),
            cls=op.cls,
        ))
        decode.append(timed_call(
            rec, "shard.wire_decode", lambda: wire.decode_partial(message), cls=op.cls
        ))
        size.append(len(message["payload"]))
    failover = runner.coordinator.metrics.snapshot()["repro_shard_failover_total"]
    return {
        "shard.wire_encode_ms": _mean(encode) * 1e3,
        "shard.wire_decode_ms": _mean(decode) * 1e3,
        "shard.wire_bytes_per_op": _mean(size),
        "shard.failover_total": sum(failover["series"].values()),
    }


@provides("profiler.price_ms", "hardware.replay_events_s", "hardware.gshare_events_s")
def probe_model(ctx: Context) -> dict:
    """Pricing one result, and the two trace simulators on fixed traces."""
    import numpy as np

    from repro.core.profiler import MicroArchProfiler
    from repro.engines import engine_by_name
    from repro.hardware.branch import GSharePredictor
    from repro.hardware.hierarchy import CacheHierarchy
    from repro.hardware.spec import BROADWELL
    from repro.sql import compile_sql
    from repro.tpch import TPCH_SQL

    rec = ctx.recorder
    engine = engine_by_name("Typer")
    result = compile_sql(TPCH_SQL["Q6"]).execute(engine, ctx.db)
    profiler = MicroArchProfiler()
    rng = np.random.default_rng(0)
    addresses = rng.integers(0, 1 << 23, 30_000) * 8
    outcomes = rng.random(500_000) < 0.3
    return {
        "profiler.price_ms": timed_call(
            rec, "profiler.price", lambda: profiler.profile(engine, result)
        ) * 1e3,
        "hardware.replay_events_s": len(addresses) / timed_call(
            rec, "hardware.replay", lambda: CacheHierarchy(BROADWELL).replay(addresses)
        ),
        "hardware.gshare_events_s": len(outcomes) / timed_call(
            rec, "hardware.gshare", lambda: GSharePredictor().run(0x40, outcomes)
        ),
    }


@provides("tpch.dbgen_cold_s", "tpch.dbcache_load_s")
def probe_tpch(ctx: Context) -> dict:
    """dbgen into an empty cache directory.  The warm load is the one
    this process did at set-up."""
    from repro.tpch import dbcache, generate_database

    workload = ctx.workload
    warm_dir = os.environ["REPRO_CACHE_DIR"]
    cold_dir = Path(warm_dir).parent / f"cold-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(cold_dir)
    dbcache.clear_memo()
    try:
        with ctx.recorder.span("tpch.dbgen_cold") as span:
            generate_database(scale_factor=workload.scale_factor, seed=workload.db_seed)
    finally:
        os.environ["REPRO_CACHE_DIR"] = warm_dir
        dbcache.clear_memo()
        shutil.rmtree(cold_dir, ignore_errors=True)
    return {"tpch.dbgen_cold_s": span["end"] - span["start"], "tpch.dbcache_load_s": ctx.load_s}


# ----------------------------------------------------------------------
# paper_figures: spans around the engines and the profiler
# ----------------------------------------------------------------------
@contextmanager
def traced_layers(recorder: SpanRecorder, workload):
    """While figures regenerate, wrap the engines' public ``run_*``
    methods in ``engine.run`` spans.  Query workloads need none of this:
    their service returns its own span tree."""
    if not workload.exec_cache:
        yield
        return
    from repro.core.execcache import CACHED_METHODS
    from repro.engines import engine_by_name

    undo = []
    classes = {type(engine_by_name(n)) for n in ("Typer", "Tectorwise", "DBMS R", "DBMS C")}
    for cls in classes:
        for name in (*CACHED_METHODS, "run_tpch"):
            inner = getattr(cls, name)

            def outer(self, *args, _inner=inner, _name=name, **kwargs):
                with recorder.span("engine.run", method=_name, engine=self.name):
                    return _inner(self, *args, **kwargs)

            undo.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, outer)
    try:
        yield
    finally:
        for cls, name, original in undo:
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)


def figure_metrics(ctx: Context, cache_rounds) -> dict:
    spans = ctx.recorder.spans
    names = {span["id"]: span["name"] for span in spans}
    engine_ms = sum(
        _ms(s) for s in spans
        if s["name"] == "engine.run" and names.get(s["parent"]) != "engine.run"
    )
    request_ms = sum(_ms(s) for s in spans if s["name"] == "request")
    return {
        "analysis.engine_exec_share": _ratio(engine_ms, request_ms),
        "analysis.execcache_hit_ratio": _ratio(cache_rounds.hits, cache_rounds.lookups),
    }


# ----------------------------------------------------------------------
PROBES = (
    probe_sql, probe_service, probe_route, probe_engines, probe_merge, probe_storage,
    probe_parallel, probe_shard, probe_model, probe_tpch,
)


def collect(ctx: Context, cache_rounds=None) -> dict:
    """Every ``PER_LAYER`` metric: the workload's own traffic first,
    then each probe for what is still missing."""
    metrics = request_metrics(ctx.recorder.spans, over_tcp=isinstance(ctx.runner, TcpRunner))
    metrics.update(stats_metrics(ctx.runner.stats(), ctx.db.table("lineitem").n_rows))
    if cache_rounds is not None:
        metrics.update(figure_metrics(ctx, cache_rounds))
    metrics["obs.tracing_overhead_ratio"] = ctx.traced.wall_s / ctx.plain.wall_s
    # Probes time the layers themselves, never an execution-cache lookup
    # (paper_figures runs with the cache on).
    exec_cache = os.environ.get("REPRO_EXEC_CACHE")
    os.environ["REPRO_EXEC_CACHE"] = "0"
    try:
        for probe in PROBES:
            if not all(name in metrics for name in probe.provides):
                for name, value in probe(ctx).items():
                    metrics.setdefault(name, value)
    finally:
        os.environ["REPRO_EXEC_CACHE"] = exec_cache
    return {name: float(metrics.get(name, 0.0)) for name, _, _ in PER_LAYER}
