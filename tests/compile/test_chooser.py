"""The per-query engine chooser: cycle-model predictions per route.

``choose`` prices one bound query under the micro-architectural cycle
model for the Typer and Tectorwise hand-wired styles and the compiled
kernel program, and picks the cheapest.  The decision must be
deterministic, cached, and surfaced through the service (response
details and ``explain``).
"""

from __future__ import annotations

import pytest

from repro.compile.chooser import (
    ChooserError,
    choose,
    clear_chooser_cache,
    estimate_cardinalities,
)
from repro.compile.program import compiled_program
from repro.core.execcache import EXECUTION_CACHE
from repro.serve import QueryService, ServiceConfig
from repro.sql.api import compile_sql
from repro.tpch.sql import EXTENDED_TPCH_SQL, TPCH_SQL

ROUTES = ("Typer", "Tectorwise", "compiled")


@pytest.fixture(autouse=True)
def _fresh_decisions():
    clear_chooser_cache()
    yield
    clear_chooser_cache()


class TestDecision:
    @pytest.mark.parametrize("qid", sorted(EXTENDED_TPCH_SQL))
    def test_every_compiled_query_gets_a_decision(self, tiny_db, qid):
        bound = compile_sql(EXTENDED_TPCH_SQL[qid])
        decision = choose(tiny_db, bound)
        assert decision["workload"] == bound.workload
        assert decision["method"] == bound.method
        assert sorted(decision["predicted_cycles"]) == sorted(ROUTES)
        assert decision["chosen"] in ROUTES
        for cycles in decision["predicted_cycles"].values():
            assert cycles > 0.0

    def test_chosen_is_the_cheapest_route(self, tiny_db):
        decision = choose(tiny_db, compile_sql(EXTENDED_TPCH_SQL["Q5"]))
        cheapest = min(decision["predicted_cycles"].values())
        assert decision["predicted_cycles"][decision["chosen"]] == cheapest

    def test_decisions_are_deterministic_and_cached(self, tiny_db, monkeypatch):
        from repro.compile import chooser as chooser_mod

        bound = compile_sql(EXTENDED_TPCH_SQL["Q3"])
        first = choose(tiny_db, bound)
        # A repeat must come from the decision cache: forbid re-pricing.
        monkeypatch.setattr(
            chooser_mod,
            "_decide",
            lambda *args: pytest.fail("cached decision was re-priced"),
        )
        assert choose(tiny_db, bound) == first
        monkeypatch.undo()
        clear_chooser_cache()
        fresh = choose(tiny_db, compile_sql(EXTENDED_TPCH_SQL["Q3"]))
        assert fresh == first

    def test_bindings_of_one_shape_share_a_decision(self, tiny_db, monkeypatch):
        """A decision is per shape and route: another date in Q3 reads the
        cached decision; Q6 and its compiled variant (one shape, two
        routes) get one decision each."""
        from repro.compile import chooser as chooser_mod

        q6, q6v = TPCH_SQL["Q6"], TPCH_SQL["Q6"].replace("< 24", "< 25")
        first = choose(tiny_db, compile_sql(EXTENDED_TPCH_SQL["Q3"]))
        template = choose(tiny_db, compile_sql(q6))
        compiled = choose(tiny_db, compile_sql(q6v))
        assert (template["route"], compiled["route"]) == ("template", "compiled")
        monkeypatch.setattr(
            chooser_mod, "_decide", lambda *args: pytest.fail("a binding was re-priced")
        )
        other = EXTENDED_TPCH_SQL["Q3"].replace("1995-03-15", "1995-06-01")
        assert choose(tiny_db, compile_sql(other)) == first
        assert choose(tiny_db, compile_sql(q6v.replace("< 25", "< 30"))) == compiled

    def test_uncompilable_query_raises_with_the_reason(self, tiny_db):
        bound = compile_sql(TPCH_SQL["Q18"])  # IN (subquery) semi-join
        with pytest.raises(ChooserError, match="IN \\(subquery\\)"):
            choose(tiny_db, bound)

    def test_hand_wired_templates_can_still_be_priced(self, tiny_db):
        # Q1/Q6 bind to the hand-wired template but their plans compile,
        # so the chooser can still model them.
        for qid in ("Q1", "Q6"):
            decision = choose(tiny_db, compile_sql(TPCH_SQL[qid]))
            assert decision["chosen"] in ROUTES, qid


class TestCardinalityEstimates:
    def test_estimates_are_sane(self, tiny_db):
        bound = compile_sql(EXTENDED_TPCH_SQL["Q5"])
        program = compiled_program(bound.plan)
        est = estimate_cardinalities(tiny_db, program)
        assert est["driving"] == "lineitem"
        assert est["rows"] == tiny_db.table("lineitem").n_rows
        assert 0.0 <= est["selectivity"] <= 1.0
        assert 0 <= est["survivors"] <= est["rows"]
        assert len(est["joins"]) == len(program.steps)
        for join in est["joins"]:
            assert join["build_rows"] > 0
            assert 0.0 <= join["hit_fraction"] <= 1.0
            assert join["working_set_bytes"] > 0
        assert 1 <= est["groups"] <= max(1, est["survivors"])

    def test_group_key_counts_once_per_column(self, tiny_db, monkeypatch):
        """Two bindings of one shape (Q3, another date) share one
        decision, and each GROUP BY column's sampled distinct count is
        taken once."""
        import numpy as np

        from repro.compile import chooser as chooser_mod

        class CountingNumpy:
            unique_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def unique(self, *args, **kwargs):
                CountingNumpy.unique_calls += 1
                return np.unique(*args, **kwargs)

        monkeypatch.setattr(chooser_mod, "np", CountingNumpy())
        first = compile_sql(EXTENDED_TPCH_SQL["Q3"])
        second = compile_sql(EXTENDED_TPCH_SQL["Q3"].replace("1995-03-15", "1995-06-01"))
        for bound in (first, second):
            choose(tiny_db, bound)
        columns = compiled_program(first.plan).group_refs
        assert len(columns) == 2
        assert CountingNumpy.unique_calls == len(columns)

    def test_estimates_ride_along_in_the_decision(self, tiny_db):
        decision = choose(tiny_db, compile_sql(EXTENDED_TPCH_SQL["Q12"]))
        assert decision["estimates"]["driving"] == "lineitem"


class TestServiceSurface:
    @pytest.fixture
    def service(self, tiny_db):
        EXECUTION_CACHE.clear()
        with QueryService(
            ServiceConfig(workers=2, queue_depth=8, timeout_s=30.0), db=tiny_db
        ) as service:
            yield service
        EXECUTION_CACHE.clear()

    @staticmethod
    def _span(node, name):
        if node.get("name") == name:
            return node
        for child in node.get("children", []):
            found = TestServiceSurface._span(child, name)
            if found is not None:
                return found
        return None

    def test_responses_carry_the_chooser_decision(self, service):
        response = service.submit(
            EXTENDED_TPCH_SQL["Q14"], engine="Typer", trace_query=True
        )
        assert response["status"] == "ok"
        span = self._span(response["trace"], "chooser")
        assert span is not None, "every query gets a chooser span"
        assert span["attrs"]["outcome"] == "decided"
        assert span["attrs"]["chosen"] in ROUTES

    def test_declined_queries_say_so(self, service):
        response = service.submit(TPCH_SQL["Q18"], engine="Typer", trace_query=True)
        assert response["status"] == "ok"
        span = self._span(response["trace"], "chooser")
        assert span["attrs"]["outcome"] == "declined"

    def test_explain_reports_program_and_chooser(self, service):
        report = service.explain(EXTENDED_TPCH_SQL["Q19"])
        assert report["method"] == "run_compiled"
        assert report["program"]["driving"] == "lineitem"
        assert report["chooser"]["chosen"] in ROUTES

    def test_stats_snapshot_counts_decisions(self, service):
        service.submit(EXTENDED_TPCH_SQL["Q14"], engine="Typer")
        snapshot = service.stats_snapshot()
        assert snapshot["chooser"]["decisions"] >= 1
        assert snapshot["compile"]["queries"] >= 1
        chosen = snapshot["chooser"]["chosen"]
        assert sum(chosen.values()) == snapshot["chooser"]["decisions"]

    def test_metrics_exposition_has_the_new_families(self, service):
        service.submit(EXTENDED_TPCH_SQL["Q14"], engine="Typer")
        text = service.metrics_text()
        assert "repro_compile_queries_total" in text
        assert "repro_chooser_decisions_total" in text
        assert 'repro_cache_entries{cache="compile"}' in text
        assert 'repro_cache_hits_total{cache="chooser"}' in text
