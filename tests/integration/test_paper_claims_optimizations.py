"""Integration tests pinning the predication, SIMD and prefetcher
claims (Sections 7-9)."""

import pytest

from repro.engines import TectorwiseEngine, TyperEngine
from repro.hardware import PrefetcherConfig
from repro.core import ExecutionContext
from repro.workloads import run_predicated_q6, run_predication_comparison


@pytest.fixture(scope="module")
def typer_predication(paper_db, profiler):
    return run_predication_comparison(paper_db, TyperEngine(), profiler)


@pytest.fixture(scope="module")
def tectorwise_predication(paper_db, profiler):
    return run_predication_comparison(paper_db, TectorwiseEngine(), profiler)


class TestPredication:
    """Figures 17-21 and the Section 7 text."""

    def test_typer_predication_hurts_at_low_selectivity(self, typer_predication):
        variants = typer_predication[0.1]
        assert variants["predicated"].cycles > variants["branched"].cycles

    def test_typer_predication_helps_at_mid_and_high(self, typer_predication):
        for selectivity in (0.5, 0.9):
            variants = typer_predication[selectivity]
            assert variants["predicated"].cycles < variants["branched"].cycles

    def test_tectorwise_predication_always_helps(self, tectorwise_predication):
        """Section 7: only the selection-vector computation grows; the
        bulk of the projection work is unchanged."""
        for variants in tectorwise_predication.values():
            assert variants["predicated"].cycles < variants["branched"].cycles

    def test_predication_eliminates_branch_stalls(
        self, typer_predication, tectorwise_predication
    ):
        for comparison in (typer_predication, tectorwise_predication):
            for variants in comparison.values():
                predicated = variants["predicated"].breakdown
                assert predicated.branch_misp == 0.0
                assert predicated.dcache + predicated.execution > 0.0
                assert variants["branched"].breakdown.branch_misp > 0.0

    def test_predicated_selection_becomes_scan_like(self, typer_predication):
        """Figures 18/20: Dcache and Execution remain, like projection."""
        for variants in typer_predication.values():
            shares = variants["predicated"].stall_shares()
            assert shares["dcache"] + shares["execution"] > 0.9

    def test_predication_raises_bandwidth(
        self, typer_predication, tectorwise_predication
    ):
        for comparison in (typer_predication, tectorwise_predication):
            for variants in comparison.values():
                assert (
                    variants["predicated"].bandwidth.gbps
                    >= variants["branched"].bandwidth.gbps * 0.98
                )

    def test_typer_predicated_bandwidth_high_and_stable(self, typer_predication):
        """Figure 21: Typer's predicated scan streams at a constant,
        near-roof rate across selectivities."""
        rates = [
            variants["predicated"].bandwidth.gbps
            for variants in typer_predication.values()
        ]
        assert max(rates) - min(rates) < 0.5
        assert min(rates) >= 7.0

    def test_tectorwise_predicated_bandwidth_peaks_at_fifty(self, tectorwise_predication):
        rates = {
            selectivity: variants["predicated"].bandwidth.gbps
            for selectivity, variants in tectorwise_predication.items()
        }
        assert rates[0.5] >= rates[0.1]
        assert rates[0.5] > rates[0.9]

    def test_predicated_q6(self, paper_db, profiler):
        """Section 7 text: Q6 improves by ~11% on Typer and ~52% on
        Tectorwise; bandwidth rises for both."""
        typer = run_predicated_q6(paper_db, TyperEngine(), profiler)
        typer_gain = 1.0 - typer["predicated"].cycles / typer["branched"].cycles
        assert 0.02 <= typer_gain <= 0.35
        tectorwise = run_predicated_q6(paper_db, TectorwiseEngine(), profiler)
        tectorwise_gain = (
            1.0 - tectorwise["predicated"].cycles / tectorwise["branched"].cycles
        )
        assert 0.3 <= tectorwise_gain <= 0.75
        assert tectorwise_gain > typer_gain
        for reports in (typer, tectorwise):
            assert reports["predicated"].bandwidth.gbps > reports["branched"].bandwidth.gbps


@pytest.fixture(scope="module")
def simd_pairs(paper_db, skylake_profiler):
    """Tectorwise scalar/SIMD report pairs on the Skylake model."""
    engine = TectorwiseEngine()
    pairs = {}
    for label, method, args, kwargs in (
        ("projection", "run_projection", (paper_db, 4), {}),
        ("selection-50", "run_selection", (paper_db, 0.5), {"predicated": True}),
        ("selection-90", "run_selection", (paper_db, 0.9), {"predicated": True}),
        ("join-large", "run_join", (paper_db, "large"), {}),
    ):
        runner = getattr(engine, method)
        scalar = runner(*args, **kwargs, simd=False)
        simd = runner(*args, **kwargs, simd=True)
        pairs[label] = (
            skylake_profiler.profile(engine, scalar),
            skylake_profiler.profile(engine, simd),
        )
    return pairs


class TestSimd:
    """Figures 22-25 (Skylake, AVX-512)."""

    def test_simd_reduces_response_time(self, simd_pairs):
        for label, (scalar, simd) in simd_pairs.items():
            assert simd.cycles < scalar.cycles, label

    def test_simd_cuts_retiring_time_sharply(self, simd_pairs):
        """Figure 22: 70-87% fewer retiring cycles."""
        for label in ("projection", "selection-50"):
            scalar, simd = simd_pairs[label]
            reduction = 1.0 - simd.breakdown.retiring / scalar.breakdown.retiring
            assert 0.6 <= reduction <= 0.9, label

    def test_simd_shifts_scan_stalls_toward_dcache(self, simd_pairs):
        """Figure 23: Dcache stalls up, Execution stalls down."""
        for label in ("projection", "selection-50", "selection-90"):
            scalar, simd = simd_pairs[label]
            assert simd.breakdown.dcache >= scalar.breakdown.dcache * 0.95
            assert simd.breakdown.execution <= scalar.breakdown.execution

    def test_simd_raises_scan_bandwidth(self, simd_pairs):
        """Figure 24."""
        for label in ("projection", "selection-50", "selection-90"):
            scalar, simd = simd_pairs[label]
            assert simd.bandwidth.gbps > scalar.bandwidth.gbps

    def test_simd_join_probe(self, simd_pairs):
        """Figure 25: response down ~27%, Dcache stalls down,
        bandwidth up ~50% (gathers parallelise the probes)."""
        scalar, simd = simd_pairs["join-large"]
        reduction = 1.0 - simd.cycles / scalar.cycles
        assert 0.15 <= reduction <= 0.6
        assert simd.breakdown.dcache < scalar.breakdown.dcache
        assert simd.bandwidth.gbps >= 1.25 * scalar.bandwidth.gbps


class TestPrefetchers:
    """Figure 26 and the Section 9 text."""

    @pytest.fixture(scope="class")
    def projection_by_config(self, paper_db, profiler):
        engine = TyperEngine()
        result = engine.run_projection(paper_db, 4)
        return {
            name: profiler.profile(engine, result, ExecutionContext(prefetchers=config))
            for name, config in PrefetcherConfig.figure26_configs().items()
        }

    def test_prefetchers_cut_response_severalfold(self, projection_by_config):
        """The paper: prefetchers reduce the projection's response time
        by ~73% (about 3.7x)."""
        ratio = (
            projection_by_config["All disabled"].cycles
            / projection_by_config["All enabled"].cycles
        )
        assert 2.0 <= ratio <= 5.0

    def test_prefetchers_cut_dcache_stalls_most(self, projection_by_config):
        disabled = projection_by_config["All disabled"].breakdown.dcache
        enabled = projection_by_config["All enabled"].breakdown.dcache
        assert 1.0 - enabled / disabled >= 0.6

    def test_l2_streamer_alone_matches_all_four(self, projection_by_config):
        l2_streamer = projection_by_config["L2 Str."].cycles
        everything = projection_by_config["All enabled"].cycles
        assert l2_streamer <= everything * 1.15

    def test_every_single_prefetcher_helps(self, projection_by_config):
        disabled = projection_by_config["All disabled"].cycles
        for name in ("L1 NL", "L1 Str.", "L2 NL", "L2 Str."):
            assert projection_by_config[name].cycles < disabled

    def test_prefetchers_still_not_fast_enough(self, projection_by_config):
        """Section 9's conclusion: even with all prefetchers on, 50-75%
        of cycles are stalls."""
        report = projection_by_config["All enabled"]
        assert 0.5 <= report.stall_ratio <= 0.8

    def test_findings_hold_on_the_other_scans(self, paper_db, profiler):
        """Section 9's omitted graphs: Tectorwise's projection and both
        engines' selections, branched and predicated, slow down
        severalfold without prefetchers, mostly through Dcache."""
        typer, tectorwise = TyperEngine(), TectorwiseEngine()
        cases = [(tectorwise, tectorwise.run_projection(paper_db, 4))]
        for engine in (typer, tectorwise):
            for predicated in (False, True):
                cases.append(
                    (engine, engine.run_selection(paper_db, 0.5, predicated=predicated))
                )
        enabled = ExecutionContext(prefetchers=PrefetcherConfig.all_enabled())
        disabled = ExecutionContext(prefetchers=PrefetcherConfig.all_disabled())
        for engine, result in cases:
            on = profiler.profile(engine, result, enabled)
            off = profiler.profile(engine, result, disabled)
            assert off.cycles > 1.5 * on.cycles
            assert on.breakdown.dcache < 0.5 * off.breakdown.dcache

    def test_join_gains_only_modestly(self, big_db, profiler):
        """Section 9: ~20% for the large join (random accesses)."""
        engine = TyperEngine()
        result = engine.run_join(big_db, "large")
        disabled = profiler.profile(
            engine, result, ExecutionContext(prefetchers=PrefetcherConfig.all_disabled())
        )
        enabled = profiler.profile(
            engine, result, ExecutionContext(prefetchers=PrefetcherConfig.all_enabled())
        )
        gain = 1.0 - enabled.cycles / disabled.cycles
        assert 0.05 <= gain <= 0.4
