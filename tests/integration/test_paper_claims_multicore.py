"""Integration tests pinning the multi-core claims (Section 10)."""

import pytest

from repro.engines import TectorwiseEngine, TyperEngine
from repro.core import MicroArchProfiler, MulticoreModel


@pytest.fixture(scope="module")
def model(profiler):
    return MulticoreModel(profiler)


class TestProjectionSaturation:
    """Figure 29: projection saturates the socket's sequential
    bandwidth -- Typer at ~8 threads, Tectorwise at ~12."""

    def test_typer_saturates_around_eight_threads(self, model, paper_db):
        result = TyperEngine().run_projection(paper_db, 4)
        curve = model.bandwidth_curve("Typer", result, (1, 4, 8, 12, 14))
        saturation = model.saturation_point(curve, 66.0)
        assert saturation in (4, 8)
        assert curve[8] >= 0.9 * 66.0
        assert curve[14] == pytest.approx(66.0, rel=0.05)

    def test_tectorwise_saturates_later(self, model, paper_db):
        typer_result = TyperEngine().run_projection(paper_db, 4)
        tw_result = TectorwiseEngine().run_projection(paper_db, 4)
        typer_sat = model.saturation_point(
            model.bandwidth_curve("Typer", typer_result), 66.0
        )
        tw_curve = model.bandwidth_curve("Tectorwise", tw_result)
        tw_sat = model.saturation_point(tw_curve, 66.0)
        assert tw_sat is not None and typer_sat is not None
        assert tw_sat > typer_sat
        assert tw_sat in (12, 14)
        assert tw_curve[8] < 0.9 * 66.0
        assert tw_curve[12] >= 0.75 * 66.0

    def test_extra_threads_beyond_saturation_wasted(self, model, paper_db):
        """Section 10: using more cores than the saturation point wastes
        them -- response time stops improving."""
        result = TyperEngine().run_projection(paper_db, 4)
        speedups = model.speedup_curve("Typer", result, (8, 12, 14))
        assert speedups[14] < speedups[8] * 14 / 8 * 0.85


class TestJoinUnderutilization:
    """Figure 30: the large join never saturates the socket's random
    bandwidth -- compute saturates first."""

    def test_join_leaves_socket_bandwidth_idle(self, model, big_db):
        for engine in (TyperEngine(), TectorwiseEngine()):
            result = engine.run_join(big_db, "large")
            curve = model.bandwidth_curve(engine, result)
            assert model.saturation_point(curve, 60.0, threshold=0.95) is None
            assert curve[14] < 0.95 * 60.0

    def test_join_scales_almost_linearly(self, model, paper_db):
        """CPU-bound work: adding threads keeps helping."""
        result = TyperEngine().run_join(paper_db, "large")
        speedups = model.speedup_curve("Typer", result, (1, 8, 14))
        assert speedups[8] > 6.0
        assert speedups[14] > 8.0


class TestMulticoreBreakdowns:
    """Figures 27-28: the 14-thread breakdowns track single-core."""

    def test_query_composition_stable(self, model, paper_db):
        """The hash-heavy queries keep their composition; the
        scan-heavy Q1 gains Dcache share from socket bandwidth
        contention (a documented divergence)."""
        for engine in (TyperEngine(), TectorwiseEngine()):
            for query_id in ("Q9", "Q18"):
                result = engine.run_tpch(paper_db, query_id)
                solo = model.run(engine, result, 1).per_thread
                crowd = model.run(engine, result, 14).per_thread
                assert crowd.stall_ratio == pytest.approx(solo.stall_ratio, abs=0.2)
                assert crowd.breakdown.dominant_stall() == solo.breakdown.dominant_stall()
                assert crowd.stall_shares()["dcache"] >= 0.4

    def test_q1_still_most_retiring_at_14_threads(self, model, paper_db):
        for engine in (TyperEngine(), TectorwiseEngine()):
            ratios = {}
            for query_id in ("Q1", "Q6", "Q9", "Q18"):
                result = engine.run_tpch(paper_db, query_id)
                ratios[query_id] = model.run(engine, result, 14).per_thread.retiring_ratio
            assert max(ratios, key=ratios.get) == "Q1"


class TestTpchScaling:
    """Section 10's omitted TPC-H graphs: speedup and socket bandwidth
    against the thread count."""

    def test_every_query_peaks_at_fourteen_threads(self, model, paper_db):
        for engine in (TyperEngine(), TectorwiseEngine()):
            for query_id in ("Q1", "Q9"):
                result = engine.run_tpch(paper_db, query_id)
                speedups = model.speedup_curve(engine, result)
                assert speedups[14] == max(speedups.values())
                assert speedups[14] > 4.0

    def test_bandwidth_spans_projection_high_to_join_low(self, model, paper_db):
        """Predicated Q6 streams near the roof; the hash-heavy Q18 sits
        near the join's low utilisation."""
        for engine in (TyperEngine(), TectorwiseEngine()):
            q6 = model.run(engine, engine.run_q6(paper_db, predicated=True), 14)
            assert q6.bandwidth_gbps >= 0.8 * q6.socket_bandwidth.max_gbps
            q18 = model.run(engine, engine.run_tpch(paper_db, "Q18"), 14)
            assert q18.bandwidth_gbps < 0.6 * q18.socket_bandwidth.max_gbps


class TestHeadroom:
    """Section 10's closing text: SIMD and hyper-threading raise the
    join's bandwidth but the imbalance persists."""

    def test_simd_raises_multicore_join_bandwidth(self, paper_db):
        from repro.hardware import SKYLAKE

        model = MulticoreModel(MicroArchProfiler(spec=SKYLAKE))
        engine = TectorwiseEngine()
        scalar = engine.run_join(paper_db, "large")
        simd = engine.run_join(paper_db, "large", simd=True)
        threads = SKYLAKE.cores_per_socket
        scalar_bw = model.run(engine, scalar, threads).bandwidth_gbps
        simd_bw = model.run(engine, simd, threads).bandwidth_gbps
        assert 1.2 <= simd_bw / scalar_bw <= 2.0

    def test_simd_raises_join_bandwidth_on_broadwell_too(self, model, paper_db):
        engine = TectorwiseEngine()
        scalar = model.run(engine, engine.run_join(paper_db, "large"), 14)
        simd = model.run(engine, engine.run_join(paper_db, "large", simd=True), 14)
        assert simd.bandwidth_gbps > 1.15 * scalar.bandwidth_gbps

    def test_hyper_threading_raises_bandwidth_about_a_third(self, model, big_db):
        engine = TyperEngine()
        result = engine.run_join(big_db, "large")
        plain = model.run(engine, result, 14).bandwidth_gbps
        boosted = model.run(engine, result, 14, hyper_threading=True).bandwidth_gbps
        assert 1.08 <= boosted / plain <= 1.5

    def test_improvements_stay_below_the_roof(self, model, big_db):
        """At the paper's SF 70 the boosted join stays clearly below the
        roof; at this scale the hash table is ~2x the L3, so the
        un-boosted run must stay below while the boosted run may touch
        the cap."""
        engine = TyperEngine()
        result = engine.run_join(big_db, "large")
        plain = model.run(engine, result, 14)
        assert plain.bandwidth_gbps < plain.socket_bandwidth.max_gbps
        boosted = model.run(engine, result, 14, hyper_threading=True)
        assert boosted.bandwidth_gbps <= boosted.socket_bandwidth.max_gbps
