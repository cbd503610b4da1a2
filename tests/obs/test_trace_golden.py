"""Golden span trees: the exact trace shape per engine and executor.

Thread mode is pinned bit-for-bit: a FakeClock (1 ms per reading) and
a single service worker make every span id, start and duration exact,
so the whole projected tree is compared against a literal. Process
mode pins the shape -- names, ids, nesting, worker/row-range attrs --
while the morsel timings come from the worker processes' real clocks.
"""

from __future__ import annotations

import pytest
from databases import sorted_twin

from repro.core.execcache import EXECUTION_CACHE
from repro.obs import FakeClock
from repro.serve import QueryService, ServiceConfig
from repro.tpch.sql import projection_sql

ENGINES = ("DBMS R", "DBMS C", "Typer", "Tectorwise")


@pytest.fixture(autouse=True)
def _fresh_compiler_state():
    """The compiled-program and chooser-decision caches are process
    global; pinned trees assume a fresh compile inside the chooser
    span, so every golden test starts from a cleared state."""
    from repro.compile.chooser import clear_chooser_cache
    from repro.compile.program import clear_compile_cache

    clear_compile_cache()
    clear_chooser_cache()
    yield

#: Attrs that are part of the pinned golden shape.  The modeled-cost
#: attrs (modeled_cycles, modeled_ms, instructions, ...) are asserted
#: separately: their values are engine-dependent floats.
GOLDEN_ATTRS = frozenset(
    {"engine", "executor", "outcome", "worker", "row_range", "stolen",
     "queued_depth", "morsels", "method"}
)

MODELED_ATTRS = frozenset(
    {"tuples", "instructions", "streamed_bytes", "random_bytes",
     "modeled_cycles", "modeled_ms", "cached"}
)


def project(node: dict, keep=GOLDEN_ATTRS) -> dict:
    return {
        "name": node["name"],
        "span_id": node["span_id"],
        "parent_id": node["parent_id"],
        "start_ms": node["start_ms"],
        "duration_ms": node["duration_ms"],
        "attrs": {k: v for k, v in node["attrs"].items() if k in keep},
        "children": [project(child, keep) for child in node["children"]],
    }


def shape(node: dict, keep=GOLDEN_ATTRS) -> dict:
    """Like :func:`project` but without times (for cross-process spans)."""
    return {
        "name": node["name"],
        "span_id": node["span_id"],
        "parent_id": node["parent_id"],
        "attrs": {k: v for k, v in node["attrs"].items() if k in keep},
        "children": [shape(child, keep) for child in node["children"]],
    }


def find(node: dict, name: str) -> dict:
    stack = [node]
    while stack:
        current = stack.pop()
        if current["name"] == name:
            return current
        stack.extend(current["children"])
    raise AssertionError(f"no span named {name!r}")


def golden_thread_tree(engine: str, n_rows: int) -> dict:
    """The full thread-mode tree for a fresh service + empty caches.

    Clock readings advance 1 ms each; spans appear in this exact order:
    root, submitted_at, admission-end, plan_cache open, parse, plan,
    lower (open+close each), plan_cache close, execute open, morsel
    open, execcache open+close, morsel close, chooser open, compile
    open+close, chooser close, execute close, serialize open+close,
    root finish.  The chooser span holds a fresh ``compile`` child
    because the autouse fixture clears the compiled-program cache.
    """
    return {
        "name": "query", "span_id": 1, "parent_id": None,
        "start_ms": 0.0, "duration_ms": 23.0,
        "attrs": {"engine": engine},
        "children": [
            {
                "name": "admission", "span_id": 2, "parent_id": 1,
                "start_ms": 1.0, "duration_ms": 1.0,
                "attrs": {"queued_depth": 0}, "children": [],
            },
            {
                "name": "plan_cache", "span_id": 3, "parent_id": 1,
                "start_ms": 3.0, "duration_ms": 7.0,
                "attrs": {"outcome": "miss"},
                "children": [
                    {
                        "name": "parse", "span_id": 4, "parent_id": 3,
                        "start_ms": 4.0, "duration_ms": 1.0,
                        "attrs": {}, "children": [],
                    },
                    {
                        "name": "plan", "span_id": 5, "parent_id": 3,
                        "start_ms": 6.0, "duration_ms": 1.0,
                        "attrs": {}, "children": [],
                    },
                    {
                        "name": "lower", "span_id": 6, "parent_id": 3,
                        "start_ms": 8.0, "duration_ms": 1.0,
                        "attrs": {}, "children": [],
                    },
                ],
            },
            {
                "name": "execute", "span_id": 7, "parent_id": 1,
                "start_ms": 11.0, "duration_ms": 9.0,
                "attrs": {"engine": engine, "executor": "thread"},
                "children": [
                    {
                        "name": "morsel", "span_id": 8, "parent_id": 7,
                        "start_ms": 12.0, "duration_ms": 3.0,
                        "attrs": {
                            "worker": "query-worker-0",
                            "row_range": (0, n_rows),
                            "stolen": False,
                        },
                        "children": [
                            {
                                "name": "execcache", "span_id": 9,
                                "parent_id": 8,
                                "start_ms": 13.0, "duration_ms": 1.0,
                                "attrs": {
                                    "method": "run_projection",
                                    "outcome": "miss",
                                },
                                "children": [],
                            },
                        ],
                    },
                    {
                        "name": "chooser", "span_id": 10, "parent_id": 7,
                        "start_ms": 16.0, "duration_ms": 3.0,
                        "attrs": {"outcome": "decided"},
                        "children": [
                            {
                                "name": "compile", "span_id": 11,
                                "parent_id": 10,
                                "start_ms": 17.0, "duration_ms": 1.0,
                                "attrs": {}, "children": [],
                            },
                        ],
                    },
                ],
            },
            {
                "name": "serialize", "span_id": 12, "parent_id": 1,
                "start_ms": 21.0, "duration_ms": 1.0,
                "attrs": {}, "children": [],
            },
        ],
    }


class TestThreadGolden:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_matches_golden(self, tiny_db, engine):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=4),
            db=tiny_db,
            clock=FakeClock(step=0.001),
        )
        with service:
            response = service.submit(projection_sql(4), engine=engine,
                                      trace_query=True)
        assert response["status"] == "ok", response
        n_rows = tiny_db.table("lineitem").n_rows
        assert project(response["trace"]) == golden_thread_tree(engine, n_rows)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_is_bit_deterministic(self, tiny_db, engine):
        """Two runs under identical conditions yield identical trees,
        modeled attrs and all."""
        def run():
            from repro.compile.chooser import clear_chooser_cache
            from repro.compile.program import clear_compile_cache

            EXECUTION_CACHE.clear()
            clear_compile_cache()
            clear_chooser_cache()
            service = QueryService(
                ServiceConfig(workers=1, queue_depth=4),
                db=tiny_db,
                clock=FakeClock(step=0.001),
            )
            with service:
                return service.submit(
                    projection_sql(4), engine=engine, trace_query=True
                )["trace"]

        assert run() == run()

    def test_execute_span_carries_modeled_costs(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1), db=tiny_db, clock=FakeClock()
        )
        with service:
            response = service.submit(projection_sql(4), trace_query=True)
        execute = find(response["trace"], "execute")
        assert MODELED_ATTRS <= set(execute["attrs"])
        assert execute["attrs"]["modeled_cycles"] > 0
        assert execute["attrs"]["modeled_ms"] > 0
        assert execute["attrs"]["tuples"] == response["tuples"]

    def test_plan_cache_hit_prunes_compile_spans(self, tiny_db):
        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1), db=tiny_db, clock=FakeClock()
        )
        with service:
            service.submit(projection_sql(4))
            response = service.submit(projection_sql(4), trace_query=True)
        plan_cache = find(response["trace"], "plan_cache")
        assert plan_cache["attrs"]["outcome"] == "hit"
        assert plan_cache["children"] == []
        execcache = find(response["trace"], "execcache")
        assert execcache["attrs"]["outcome"] == "hit"
        assert response["cached"] is True


#: Pruning-decision attrs pinned on the ``prune`` span.
PRUNE_ATTRS = GOLDEN_ATTRS | frozenset(
    {"morsels_scanned", "morsels_pruned", "rows", "rows_pruned",
     "chunk_rows", "bytes_pruned"}
)


class TestPrunedGolden:
    """Q6 over clustered data in thread mode: the prune span and the
    per-kept-segment morsel spans are pinned bit-for-bit."""

    @pytest.fixture(scope="class")
    def sorted_db(self, tiny_db):
        return sorted_twin(tiny_db)

    @pytest.fixture(scope="class")
    def plan(self, sorted_db):
        from repro.core import pruning

        atoms = pruning.atoms_for(sorted_db, "run_q6", {})
        plan = pruning.compute_prune_plan(sorted_db, atoms)
        assert plan is not None
        return plan

    def test_fixture_plan_shape(self, plan):
        """The golden literal below assumes this exact prune shape."""
        assert plan.kept_segments == ((0, 8192),)
        assert plan.pruned_runs == ((8192, plan.n_rows, 1),)

    def golden_pruned_tree(self, engine: str, plan, summary: dict) -> dict:
        return {
            "name": "query", "span_id": 1, "parent_id": None,
            "start_ms": 0.0, "duration_ms": 25.0,
            "attrs": {"engine": engine},
            "children": [
                {"name": "admission", "span_id": 2, "parent_id": 1,
                 "start_ms": 1.0, "duration_ms": 1.0,
                 "attrs": {"queued_depth": 0}, "children": []},
                {"name": "plan_cache", "span_id": 3, "parent_id": 1,
                 "start_ms": 3.0, "duration_ms": 7.0,
                 "attrs": {"outcome": "miss"},
                 "children": [
                     {"name": "parse", "span_id": 4, "parent_id": 3,
                      "start_ms": 4.0, "duration_ms": 1.0,
                      "attrs": {}, "children": []},
                     {"name": "plan", "span_id": 5, "parent_id": 3,
                      "start_ms": 6.0, "duration_ms": 1.0,
                      "attrs": {}, "children": []},
                     {"name": "lower", "span_id": 6, "parent_id": 3,
                      "start_ms": 8.0, "duration_ms": 1.0,
                      "attrs": {}, "children": []},
                 ]},
                {"name": "execute", "span_id": 7, "parent_id": 1,
                 "start_ms": 11.0, "duration_ms": 11.0,
                 "attrs": {"engine": engine, "executor": "thread"},
                 "children": [
                     {"name": "prune", "span_id": 8, "parent_id": 7,
                      "start_ms": 12.0, "duration_ms": 1.0,
                      "attrs": {"executor": "thread", **summary},
                      "children": []},
                     {"name": "morsel", "span_id": 9, "parent_id": 7,
                      "start_ms": 14.0, "duration_ms": 1.0,
                      "attrs": {"row_range": plan.kept_segments[0],
                                "stolen": False},
                      "children": []},
                     {"name": "merge", "span_id": 10, "parent_id": 7,
                      "start_ms": 16.0, "duration_ms": 1.0,
                      "attrs": {"morsels": 2}, "children": []},
                     {"name": "chooser", "span_id": 11, "parent_id": 7,
                      "start_ms": 18.0, "duration_ms": 3.0,
                      "attrs": {"outcome": "decided"},
                      "children": [
                          {"name": "compile", "span_id": 12,
                           "parent_id": 11,
                           "start_ms": 19.0, "duration_ms": 1.0,
                           "attrs": {}, "children": []},
                      ]},
                 ]},
                {"name": "serialize", "span_id": 13, "parent_id": 1,
                 "start_ms": 23.0, "duration_ms": 1.0,
                 "attrs": {}, "children": []},
            ],
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_matches_golden(self, sorted_db, plan, engine):
        from repro.tpch.sql import TPCH_SQL

        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=4),
            db=sorted_db,
            clock=FakeClock(step=0.001),
        )
        with service:
            response = service.submit(TPCH_SQL["Q6"], engine=engine,
                                      trace_query=True)
        assert response["status"] == "ok", response
        summary = plan.summary(sorted_db, "run_q6")
        expected = self.golden_pruned_tree(engine, plan, summary)
        assert project(response["trace"], keep=PRUNE_ATTRS) == expected

    def test_nothing_pruned_still_shows_the_decision(self, tiny_db):
        """Shuffled data prunes nothing: the prune span records the
        zero outcome and execution takes the normal (execcache) path."""
        from repro.tpch.sql import TPCH_SQL

        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=4),
            db=tiny_db,
            clock=FakeClock(step=0.001),
        )
        with service:
            response = service.submit(TPCH_SQL["Q6"], trace_query=True)
        assert response["status"] == "ok", response
        prune = find(response["trace"], "prune")
        assert prune["attrs"]["morsels_pruned"] == 0
        assert prune["attrs"]["morsels_scanned"] > 0
        execcache = find(response["trace"], "execcache")
        assert execcache["attrs"]["method"] == "run_q6"

    def test_process_executor_pins_prune_span_and_stats(self, sorted_db,
                                                        plan):
        from repro.tpch.sql import TPCH_SQL

        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, timeout_s=120.0, executor="process",
                          process_workers=2),
            db=sorted_db,
            clock=FakeClock(step=0.001),
        )
        with service:
            response = service.submit(TPCH_SQL["Q6"], trace_query=True)
            stats = service.stats_snapshot()["pruning"]
        assert response["status"] == "ok", response
        prune = find(response["trace"], "prune")
        assert prune["attrs"]["executor"] == "process"
        assert prune["attrs"]["morsels_pruned"] == plan.chunks_pruned
        # Worker morsel spans cover exactly the kept segments.
        execute = find(response["trace"], "execute")
        ranges = sorted(
            tuple(span["attrs"]["row_range"])
            for span in execute["children"] if span["name"] == "morsel"
        )
        assert ranges[0][0] == plan.kept_segments[0][0]
        assert ranges[-1][1] == plan.kept_segments[-1][1]
        assert stats["queries_pruned"] == 1
        assert stats["rows_pruned"] == plan.rows_pruned

    def test_disabled_pruning_emits_no_prune_span(self, sorted_db):
        """A statement without prune atoms (the group-by) is never
        pruned, so its trace has no ``prune`` span."""
        from repro.tpch.sql import GROUPBY_SQL

        EXECUTION_CACHE.clear()
        service = QueryService(
            ServiceConfig(workers=1, queue_depth=4),
            db=sorted_db,
            clock=FakeClock(step=0.001),
        )
        with service:
            response = service.submit(GROUPBY_SQL, trace_query=True)
        assert response["status"] == "ok", response
        with pytest.raises(AssertionError, match="no span named"):
            find(response["trace"], "prune")


#: Routing-decision attrs pinned on the ``route`` span.
ROUTE_ATTRS = GOLDEN_ATTRS | frozenset({"rollup_used", "reason"})


class TestRoutedGolden:
    """Group-by over a partitioned database with a rollup attached, in
    thread mode: the entire tree collapses to a single ``route`` span
    under ``execute`` -- no prune, no morsel, no execcache -- and is
    pinned bit-for-bit."""

    @pytest.fixture(scope="class")
    def routed_db(self, tiny_db):
        from repro.rollup import (
            PartitionSpec, build_and_attach, partitioned_database,
        )
        from repro.tpch.schema import DATE_1998_09_02

        db = partitioned_database(
            tiny_db,
            PartitionSpec("l_shipdate", (2300.0, DATE_1998_09_02 + 0.5)),
        )
        build_and_attach(db)
        return db

    def golden_routed_tree(self, engine: str) -> dict:
        return {
            "name": "query", "span_id": 1, "parent_id": None,
            "start_ms": 0.0, "duration_ms": 21.0,
            "attrs": {"engine": engine},
            "children": [
                {"name": "admission", "span_id": 2, "parent_id": 1,
                 "start_ms": 1.0, "duration_ms": 1.0,
                 "attrs": {"queued_depth": 0}, "children": []},
                {"name": "plan_cache", "span_id": 3, "parent_id": 1,
                 "start_ms": 3.0, "duration_ms": 7.0,
                 "attrs": {"outcome": "miss"},
                 "children": [
                     {"name": "parse", "span_id": 4, "parent_id": 3,
                      "start_ms": 4.0, "duration_ms": 1.0,
                      "attrs": {}, "children": []},
                     {"name": "plan", "span_id": 5, "parent_id": 3,
                      "start_ms": 6.0, "duration_ms": 1.0,
                      "attrs": {}, "children": []},
                     {"name": "lower", "span_id": 6, "parent_id": 3,
                      "start_ms": 8.0, "duration_ms": 1.0,
                      "attrs": {}, "children": []},
                 ]},
                {"name": "execute", "span_id": 7, "parent_id": 1,
                 "start_ms": 11.0, "duration_ms": 7.0,
                 "attrs": {"engine": engine, "executor": "thread"},
                 "children": [
                     {"name": "route", "span_id": 8, "parent_id": 7,
                      "start_ms": 12.0, "duration_ms": 1.0,
                      "attrs": {"executor": "thread",
                                "rollup_used": True,
                                "reason": "routed"},
                      "children": []},
                     {"name": "chooser", "span_id": 9, "parent_id": 7,
                      "start_ms": 14.0, "duration_ms": 3.0,
                      "attrs": {"outcome": "decided"},
                      "children": [
                          {"name": "compile", "span_id": 10,
                           "parent_id": 9,
                           "start_ms": 15.0, "duration_ms": 1.0,
                           "attrs": {}, "children": []},
                      ]},
                 ]},
                {"name": "serialize", "span_id": 11, "parent_id": 1,
                 "start_ms": 19.0, "duration_ms": 1.0,
                 "attrs": {}, "children": []},
            ],
        }

    def _service(self, db):
        EXECUTION_CACHE.clear()
        return QueryService(
            ServiceConfig(workers=1, queue_depth=4),
            db=db,
            clock=FakeClock(step=0.001),
        )

    def test_trace_matches_golden(self, routed_db):
        from repro.tpch.sql import GROUPBY_SQL

        with self._service(routed_db) as service:
            response = service.submit(GROUPBY_SQL, trace_query=True)
        assert response["status"] == "ok", response
        expected = self.golden_routed_tree("Typer")
        assert project(response["trace"], keep=ROUTE_ATTRS) == expected

    def test_fallback_route_span_carries_reason(self, routed_db):
        """An engine whose Q1 finisher cannot merge partials still gets
        a route span -- rollup_used False with the reason -- and then
        takes the normal prune/morsel path."""
        from repro.tpch.sql import TPCH_SQL

        with self._service(routed_db) as service:
            response = service.submit(TPCH_SQL["Q1"], engine="DBMS R",
                                      trace_query=True)
        assert response["status"] == "ok", response
        route = find(response["trace"], "route")
        assert project(route, keep=ROUTE_ATTRS) == {
            "name": "route", "span_id": 8, "parent_id": 7,
            "start_ms": 12.0, "duration_ms": 1.0,
            "attrs": {"executor": "thread", "rollup_used": False,
                      "reason": "engine-finisher-not-decomposable"},
            "children": [],
        }
        find(response["trace"], "morsel")  # base path actually ran

    def test_no_rollups_attached_emits_no_route_span(self, tiny_db):
        from repro.tpch.sql import GROUPBY_SQL

        with self._service(tiny_db) as service:
            response = service.submit(GROUPBY_SQL, trace_query=True)
        assert response["status"] == "ok", response
        with pytest.raises(AssertionError, match="no span named"):
            find(response["trace"], "route")


@pytest.fixture(scope="module")
def process_service(tiny_db):
    EXECUTION_CACHE.clear()
    service = QueryService(
        ServiceConfig(
            workers=1,
            timeout_s=120.0,
            executor="process",
            process_workers=2,
        ),
        db=tiny_db,
        clock=FakeClock(step=0.001),
    )
    with service:
        yield service
    EXECUTION_CACHE.clear()


class TestProcessGolden:
    def expected_shape(self, engine: str, plan_cached: bool, morsels: int,
                       merged: int, morsel_attrs: list[dict]) -> dict:
        compile_children = []
        if not plan_cached:
            compile_children = [
                {"name": "parse", "span_id": 4, "parent_id": 3,
                 "attrs": {}, "children": []},
                {"name": "plan", "span_id": 5, "parent_id": 3,
                 "attrs": {}, "children": []},
                {"name": "lower", "span_id": 6, "parent_id": 3,
                 "attrs": {}, "children": []},
            ]
        base = 7 if not plan_cached else 4
        execute_children = [
            {"name": "morsel", "span_id": base + 1 + index,
             "parent_id": base, "attrs": attrs, "children": []}
            for index, attrs in enumerate(morsel_attrs)
        ]
        execute_children.append(
            {"name": "merge", "span_id": base + 1 + morsels,
             "parent_id": base, "attrs": {"morsels": merged}, "children": []}
        )
        # The chooser prices every query parent-side; the compiled-
        # program cache is cleared per test, so a compile child appears.
        execute_children.append(
            {"name": "chooser", "span_id": base + 2 + morsels,
             "parent_id": base, "attrs": {"outcome": "decided"},
             "children": [
                 {"name": "compile", "span_id": base + 3 + morsels,
                  "parent_id": base + 2 + morsels, "attrs": {},
                  "children": []},
             ]}
        )
        return {
            "name": "query", "span_id": 1, "parent_id": None,
            "attrs": {"engine": engine},
            "children": [
                {"name": "admission", "span_id": 2, "parent_id": 1,
                 "attrs": {"queued_depth": 0}, "children": []},
                {"name": "plan_cache", "span_id": 3, "parent_id": 1,
                 "attrs": {"outcome": "hit" if plan_cached else "miss"},
                 "children": compile_children},
                {"name": "execute", "span_id": base, "parent_id": 1,
                 "attrs": {"engine": engine, "executor": "process"},
                 "children": execute_children},
                {"name": "serialize", "span_id": base + 4 + morsels,
                 "parent_id": 1, "attrs": {}, "children": []},
            ],
        }

    @pytest.mark.parametrize("index,engine", list(enumerate(ENGINES)))
    def test_trace_shape_per_engine(self, process_service, tiny_db, index,
                                    engine):
        response = process_service.submit(
            projection_sql(4), engine=engine, trace_query=True
        )
        assert response["status"] == "ok", response
        tree = response["trace"]
        execute = find(tree, "execute")
        morsel_spans = [c for c in execute["children"] if c["name"] == "morsel"]
        merge_spans = [c for c in execute["children"] if c["name"] == "merge"]
        assert len(merge_spans) == 1
        merged = merge_spans[0]["attrs"]["morsels"]

        # Two pool workers, tiny table, one morsel per claim: exactly
        # two morsel spans; stealing only shifts who ran them.
        assert len(morsel_spans) == 2
        assert all(span["attrs"]["worker"] in (0, 1) for span in morsel_spans)
        assert all(span["attrs"]["stolen"] in (True, False)
                   for span in morsel_spans)
        assert merged in (1, 2)

        # Row ranges partition the table exactly, in sorted order.
        n_rows = tiny_db.table("lineitem").n_rows
        ranges = [span["attrs"]["row_range"] for span in morsel_spans]
        assert ranges == sorted(ranges)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_rows
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

        # The full shape (ids, nesting, non-racy attrs) is golden; the
        # worker/stolen attrs and timings are checked above instead.
        racy = GOLDEN_ATTRS - {"worker", "stolen"}
        expected = self.expected_shape(
            engine,
            plan_cached=index > 0,  # module-scoped service, same SQL
            morsels=2,
            merged=merged,
            morsel_attrs=[
                {"row_range": span_range} for span_range in ranges
            ],
        )
        assert shape(tree, keep=racy) == expected

    def test_morsel_spans_nest_inside_execute(self, process_service):
        response = process_service.submit(
            projection_sql(2), engine="Typer", trace_query=True
        )
        assert response["status"] == "ok", response
        execute = find(response["trace"], "execute")
        start = execute["start_ms"]
        end = start + execute["duration_ms"]
        for child in execute["children"]:
            assert child["start_ms"] >= start
            assert child["start_ms"] + child["duration_ms"] <= end + 1e-6
