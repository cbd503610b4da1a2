"""Structural tests for every figure function: each must produce the
rows, columns and notes its consumers (olapbench, CLI, charts)
rely on."""

import pytest

from repro import MicroArchProfiler, SKYLAKE
from repro.analysis import EXPERIMENTS


@pytest.fixture(scope="module")
def figures(small_db, profiler):
    """Execute every registered experiment once on the shared small
    database (Skylake experiments get their own profiler per spec)."""
    results = {}
    for experiment_id, spec in EXPERIMENTS.items():
        machine_profiler = (
            MicroArchProfiler(spec=SKYLAKE) if spec.machine is SKYLAKE else profiler
        )
        results[experiment_id] = spec.run(small_db, machine_profiler)
    return results


class TestEveryExperimentExecutes:
    def test_all_ids_produce_rows(self, figures):
        for experiment_id, figure in figures.items():
            assert figure.rows, experiment_id
            assert figure.figure_id == experiment_id

    def test_rows_match_declared_columns(self, figures):
        for experiment_id, figure in figures.items():
            for row in figure.rows:
                assert set(figure.columns) <= set(row), experiment_id

    def test_all_render_as_text_markdown_csv(self, figures):
        for experiment_id, figure in figures.items():
            assert figure.to_text()


class TestExpectedRowCounts:
    CASES = {
        "fig01": 8,   # 2 engines x 4 degrees
        "fig03": 8,
        "fig05": 8,
        "fig07": 6,   # 2 engines x 3 selectivities
        "fig09": 6,
        "fig11": 6,   # 2 engines x 3 sizes
        "fig12": 6,
        "fig14": 4,   # four systems
        "fig15": 8,   # 2 engines x 4 queries
        "fig17": 6,   # 2 variants x 3 selectivities
        "fig21": 12,  # 2 engines x 3 selectivities x 2 variants
        "fig22": 8,   # 4 cases x 2 variants
        "fig25": 2,
        "fig26": 6,   # six prefetcher configs
        "fig29": 10,  # 2 engines x 5 thread counts
        "sec6-chains": 2,
        "sec2-groupby": 4,
        "sec10-speedup": 20,
    }

    @pytest.mark.parametrize("experiment_id,expected", sorted(CASES.items()))
    def test_row_count(self, figures, experiment_id, expected):
        assert len(figures[experiment_id].rows) == expected

    def test_share_columns_are_fractions(self, figures):
        for experiment_id in ("fig01", "fig03", "fig15", "fig27"):
            for row in figures[experiment_id].rows:
                shares = [v for k, v in row.items() if k.startswith("share_")]
                assert all(0.0 <= share <= 1.0 for share in shares)
                assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_stall_share_columns_sum_to_one(self, figures):
        for experiment_id in ("fig02", "fig04", "fig10", "fig16"):
            for row in figures[experiment_id].rows:
                shares = [
                    v for k, v in row.items() if k.startswith("stall_share_")
                ]
                assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_every_figure_has_notes_where_promised(self, figures):
        for experiment_id in ("fig05", "fig06", "fig26", "sec2-groupby"):
            assert figures[experiment_id].notes, experiment_id
