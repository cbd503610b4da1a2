"""The service's counts, pinned: outcome and decision totals, as
``stats_snapshot()`` renders them and as the metrics exposition shows
them.

``pinned_counters.json`` was written from the commit before the service
counted everything in its metrics registry (it kept a decision-totals
table and per-status stats beside it); ``python tests/pinned.py
counters`` writes it from :func:`collect`.

The scripted run clears the execution cache, submits six statements
plus one that fails to compile on a clustered rollup twin, once on the
thread executor and once on the process executor, and sends ``partial``
ops to the nodes of two hash shards.
"""

from __future__ import annotations

import pytest
from databases import ALIGNED_BREAKS, TINY_SF
from pinned import load

from repro.core.execcache import EXECUTION_CACHE
from repro.obs import parse_exposition
from repro.rollup import PartitionSpec, build_and_attach, partitioned_database
from repro.serve import QueryService, ServiceConfig
from repro.serve.server import dispatch
from repro.tpch import generate_database
from repro.tpch.schema import DATE_1995_01_01, DATE_1998_09_02
from repro.tpch.sql import (
    EXTENDED_TPCH_SQL,
    GROUPBY_SQL,
    TPCH_SQL,
    projection_sql,
    selection_sql,
)

OUTCOMES = ("submitted", "ok", "errors", "rejected", "timeouts", "cache_hits")
BLOCKS = ("pruning", "rollups", "encoded_agg", "compile", "chooser")
#: Exposition families whose every sample is pinned.
PREFIXES = (
    "repro_queries_", "repro_prune_", "repro_rollup_",
    "repro_encoded_agg_", "repro_compile_", "repro_chooser_",
)
#: The families added since the pin, and the stats entry each renders.
NEW_FAMILIES = {
    "repro_prune_eligible_queries_total": ("pruning", "queries"),
    "repro_prune_bytes_pruned_total": ("pruning", "bytes_pruned"),
    "repro_rollup_bytes_read_total": ("rollups", "bytes_read"),
    "repro_rollup_base_bytes_avoided_total": ("rollups", "base_bytes_avoided"),
    "repro_encoded_agg_eligible_queries_total": ("encoded_agg", "queries"),
    "repro_compile_joins_total": ("compile", "joins"),
    "repro_compile_groups_emitted_total": ("compile", "groups_emitted"),
    "repro_queries_cached_total": (None, "cache_hits"),
}


def record(service) -> dict:
    """The pinned part of one service's ``stats_snapshot()`` and
    exposition.  ``compile.cache`` counts the process-global program
    cache, so it is left out."""
    snapshot = service.stats_snapshot()
    stats = {key: snapshot[key] for key in OUTCOMES}
    for block in BLOCKS:
        stats[block] = {k: v for k, v in snapshot[block].items() if k != "cache"}
    samples = {
        name: {
            ",".join(f'{label}="{value}"' for label, value in key): value
            for key, value in series.items()
        }
        for name, series in parse_exposition(service.metrics_text()).items()
        if name != "__types__" and name.startswith(PREFIXES)
    }
    return {"stats": stats, "samples": samples}


def reuse_twin(db):
    """The clustered rollup twin of ``TestDecisionSink``: Q6 prunes,
    Q1 and the group-by route."""
    twin = partitioned_database(
        db, PartitionSpec("l_shipdate", (DATE_1995_01_01, DATE_1998_09_02 + 0.5))
    )
    build_and_attach(twin)
    return twin


def scripted_run(tiny_db) -> dict:
    """Every recorded service of the scripted run, by name."""
    from repro.shard import build_shards, wire

    reuse_db = reuse_twin(tiny_db)
    statements = (
        TPCH_SQL["Q1"], TPCH_SQL["Q6"], selection_sql(0.02, reuse_db),
        projection_sql(2), GROUPBY_SQL, EXTENDED_TPCH_SQL["Q3"],
        "SELECT nope FROM lineitem",
    )
    runs = {}
    for executor in ("thread", "process"):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=8, timeout_s=120.0,
                          executor=executor, process_workers=2),
            db=reuse_db,
        )
        with service:
            for sql in statements:
                service.submit(sql)
            runs[executor] = record(service)
    EXECUTION_CACHE.clear()
    rollup_db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
    build_and_attach(rollup_db)
    for index, shard in enumerate(build_shards(rollup_db, 2, "hash")):
        node = QueryService(ServiceConfig(shard_node=True, scale_factor=0.0), db=shard)
        for method in ("run_groupby", "run_q1", "run_q6", "run_nope"):
            dispatch(node, {**wire.encode_call(method, ()), "engine": "Tectorwise"})
        runs[f"node{index}"] = record(node)
    EXECUTION_CACHE.clear()
    return runs


def collect() -> dict:
    """The scripted run on ``tiny_db``'s database, without the families
    added since the pin."""
    runs = scripted_run(generate_database(scale_factor=TINY_SF, seed=7))
    for run in runs.values():
        for name in NEW_FAMILIES:
            run["samples"].pop(name, None)
    return runs


@pytest.fixture(scope="module")
def runs(tiny_db):
    return scripted_run(tiny_db)


PINNED = load("counters")


def _counts(value):
    """Every number inside ``value`` (a stats entry or block)."""
    if isinstance(value, dict):
        for inner in value.values():
            yield from _counts(inner)
    elif not isinstance(value, (str, list)):
        yield value


def test_every_run_is_pinned(runs):
    assert set(runs) == set(PINNED)


@pytest.mark.parametrize("run", ("thread", "process", "node0", "node1"))
def test_stats_snapshot_matches_pin(runs, run):
    stats = runs[run]["stats"]
    assert stats == PINNED[run]["stats"]
    counts = list(_counts(stats))
    assert counts and all(type(count) is int for count in counts)


@pytest.mark.parametrize("run", ("thread", "process", "node0", "node1"))
def test_exposition_keeps_every_pinned_sample(runs, run):
    samples = runs[run]["samples"]
    for name, series in PINNED[run]["samples"].items():
        assert samples.get(name) == series, name


@pytest.mark.parametrize("run", ("thread", "process", "node0", "node1"))
def test_only_the_new_families_are_new_and_render_stats(runs, run):
    stats, samples = runs[run]["stats"], runs[run]["samples"]
    for name in samples.keys() - PINNED[run]["samples"].keys():
        block, key = NEW_FAMILIES[name]
        expected = stats[key] if block is None else stats[block][key]
        assert samples[name] == {"": expected}, name

