"""Integration tests pinning the paper's projection/selection claims
(Sections 3-4) at a scale where working sets exceed the modelled L3."""

import pytest

from repro.engines import (
    ColumnStoreEngine,
    RowStoreEngine,
    TectorwiseEngine,
    TyperEngine,
)
from repro.workloads import (
    normalized_response_times,
    run_projection_sweep,
    run_selection_sweep,
)


@pytest.fixture(scope="module")
def projection_reports(paper_db, profiler):
    engines = (RowStoreEngine(), ColumnStoreEngine(), TyperEngine(), TectorwiseEngine())
    return run_projection_sweep(paper_db, engines, profiler)


@pytest.fixture(scope="module")
def selection_reports(paper_db, profiler):
    return run_selection_sweep(
        paper_db, (TyperEngine(), TectorwiseEngine()), profiler
    )


class TestProjectionCommercial:
    """Figures 1-2, 6."""

    def test_dbms_r_retiring_near_half(self, projection_reports):
        for report in projection_reports["DBMS R"].values():
            assert 0.30 <= report.retiring_ratio <= 0.60

    def test_dbms_c_retiring_dominates(self, projection_reports):
        for report in projection_reports["DBMS C"].values():
            assert report.retiring_ratio >= 0.70

    def test_no_icache_problem(self, projection_reports):
        """The paper's headline negative result: unlike OLTP, no
        commercial OLAP system is Icache-bound."""
        for engine in ("DBMS R", "DBMS C"):
            for report in projection_reports[engine].values():
                assert report.cycle_shares()["icache"] < 0.10

    def test_dbms_r_stalls_are_dcache_and_execution(self, projection_reports):
        report = projection_reports["DBMS R"][4]
        shares = report.stall_shares()
        assert shares["dcache"] + shares["execution"] > 0.6
        assert shares["icache"] < 0.25

    def test_instruction_footprint_orders_of_magnitude(self, projection_reports):
        """Figure 6: DBMS R ~2 orders of magnitude slower than Typer;
        DBMS C in between, ~1 order slower."""
        normalized = normalized_response_times(projection_reports, degree=4)
        assert normalized["Typer"] == pytest.approx(1.0)
        assert 50 <= normalized["DBMS R"] <= 400
        assert 5 <= normalized["DBMS C"] <= 40
        assert normalized["DBMS R"] > 5 * normalized["DBMS C"]
        assert 0.5 <= normalized["Tectorwise"] <= 2.5


class TestProjectionHighPerformance:
    """Figures 3-5."""

    def test_stall_ratios_in_paper_band(self, projection_reports):
        """High performance engines spend 25-82% of cycles on stalls."""
        for engine in ("Typer", "Tectorwise"):
            for report in projection_reports[engine].values():
                assert 0.25 <= report.stall_ratio <= 0.82

    def test_typer_stalls_grow_with_projectivity(self, projection_reports):
        ratios = [
            projection_reports["Typer"][degree].stall_ratio for degree in (1, 2, 3, 4)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] >= 0.5
        assert ratios[-1] <= 0.8

    def test_tectorwise_breakdown_stable(self, projection_reports):
        """Section 3: from degree two onwards the vectorized pattern is
        the same, so the breakdown barely moves."""
        ratios = [
            projection_reports["Tectorwise"][degree].stall_ratio for degree in (2, 3, 4)
        ]
        assert max(ratios) - min(ratios) < 0.1

    def test_typer_dcache_dominates_at_high_projectivity(self, projection_reports):
        for degree in (2, 3, 4):
            report = projection_reports["Typer"][degree]
            assert report.breakdown.dominant_stall() == "dcache"
            assert report.stall_shares()["dcache"] > 0.6

    def test_tectorwise_splits_dcache_and_execution(self, projection_reports):
        for degree in (2, 3, 4):
            shares = projection_reports["Tectorwise"][degree].stall_shares()
            assert shares["dcache"] > 0.3
            assert shares["execution"] > 0.15

    def test_typer_approaches_bandwidth_roof(self, projection_reports):
        """Figure 5: Typer nearly saturates the per-core sequential
        bandwidth from degree two onwards."""
        for degree in (2, 3, 4):
            usage = projection_reports["Typer"][degree].bandwidth
            assert usage.utilization >= 0.6
        p4 = projection_reports["Typer"][4].bandwidth
        assert p4.gbps >= 8.0

    def test_tectorwise_bandwidth_cut_by_materialization(self, projection_reports):
        for degree in (2, 3, 4):
            typer = projection_reports["Typer"][degree].bandwidth.gbps
            tectorwise = projection_reports["Tectorwise"][degree].bandwidth.gbps
            assert tectorwise < 0.9 * typer


class TestSelectionCommercial:
    """Figures 7-8."""

    @pytest.fixture(scope="class")
    def commercial_selection(self, paper_db, profiler):
        return run_selection_sweep(
            paper_db, (RowStoreEngine(), ColumnStoreEngine()), profiler
        )

    def test_retiring_grows_with_selectivity(self, commercial_selection):
        for reports in commercial_selection.values():
            assert reports[0.9].retiring_ratio >= reports[0.1].retiring_ratio

    def test_no_instruction_stall_problem(self, commercial_selection):
        for reports in commercial_selection.values():
            for report in reports.values():
                assert report.stall_shares()["icache"] < 0.3


class TestSelection:
    """Figures 9-10 and the Section 4 text."""

    def test_stall_ratio_highest_at_fifty_percent(self, selection_reports):
        typer = selection_reports["Typer"]
        assert typer[0.5].stall_ratio > typer[0.1].stall_ratio
        assert typer[0.5].stall_ratio > typer[0.9].stall_ratio
        tectorwise = selection_reports["Tectorwise"]
        assert tectorwise[0.5].stall_ratio > tectorwise[0.9].stall_ratio
        assert tectorwise[0.5].stall_ratio > tectorwise[0.1].stall_ratio - 0.02

    def test_branch_mispredictions_peak_at_fifty_percent(self, selection_reports):
        for engine in ("Typer", "Tectorwise"):
            shares = {
                selectivity: report.stall_shares()["branch_misp"]
                for selectivity, report in selection_reports[engine].items()
            }
            assert shares[0.5] > shares[0.1]
            assert shares[0.5] > shares[0.9]
            assert shares[0.5] >= 0.3

    def test_typer_conjunction_easier_at_low_selectivity(self, selection_reports):
        """Section 4: the compiled engine's branch sees the combined
        selectivity, the vectorized engine pays per predicate."""
        typer_ms = selection_reports["Typer"][0.1].time_breakdown_ms()["branch_misp"]
        tectorwise_ms = (
            selection_reports["Tectorwise"][0.1].time_breakdown_ms()["branch_misp"]
        )
        assert typer_ms < tectorwise_ms

    def test_bandwidth_well_below_roof(self, selection_reports):
        """Section 4: mispredictions keep the cores from generating
        enough memory traffic."""
        for engine in ("Typer", "Tectorwise"):
            for report in selection_reports[engine].values():
                assert report.bandwidth.utilization < 0.80

    def test_stall_band(self, selection_reports):
        for engine in ("Typer", "Tectorwise"):
            for report in selection_reports[engine].values():
                assert 0.25 <= report.stall_ratio <= 0.85
