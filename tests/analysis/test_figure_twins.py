"""Each figure twin is built once per database identity
(:mod:`repro.analysis.twins`), and the figures leave it as built."""

from __future__ import annotations

from pinned import array_sha256, json_sha256
from test_golden_figures import GOLDEN, figure_digest

from repro import memo
from repro.analysis import run_experiment
from repro.analysis.figures_pruning import _clustered_twin
from repro.analysis.figures_rollup import _partitioned_twin
from repro.analysis.twins import figure_twin
from repro.core.execcache import EXECUTION_CACHE

#: figure id -> the builder of the twin it runs on.
TWIN_FIGURES = {"sec-rollup": _partitioned_twin, "sec-pruning": _clustered_twin}


def _payload_digests(db) -> dict:
    meta, arrays = db.payload()
    return {"meta": json_sha256(meta)} | {
        stem: array_sha256(array) for stem, array in arrays.items()
    }


def test_rounds_with_a_cleared_execution_cache_reuse_each_twin(db_factory):
    """Two rounds as the ``paper_figures`` benchmark runs them: the
    execution cache is cleared after each, the twins are not rebuilt,
    every digest is the golden one and neither figure changes its twin."""
    db = db_factory(0.1, seed=42)
    twins = {figure_id: figure_twin(db, build) for figure_id, build in TWIN_FIGURES.items()}
    before = {figure_id: _payload_digests(twin) for figure_id, twin in twins.items()}
    cache = memo.SHARED["twins"]
    for round_ in range(2):
        hits, misses = cache.hits, cache.misses
        for figure_id in TWIN_FIGURES:
            digest = figure_digest(run_experiment(figure_id, db=db))
            assert digest == GOLDEN[figure_id], (round_, figure_id)
        assert (cache.hits, cache.misses) == (hits + len(TWIN_FIGURES), misses), round_
        EXECUTION_CACHE.clear()
    for figure_id, build in TWIN_FIGURES.items():
        assert figure_twin(db, build) is twins[figure_id]
        assert _payload_digests(twins[figure_id]) == before[figure_id], figure_id


def test_each_database_identity_gets_its_own_twin(tiny_db, small_db, monkeypatch):
    """A twin is physical design, not an answer: turning the execution
    cache off does not rebuild it."""
    monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
    for build in TWIN_FIGURES.values():
        tiny, small = figure_twin(tiny_db, build), figure_twin(small_db, build)
        assert tiny.identity != small.identity
        for parent, twin in ((tiny_db, tiny), (small_db, small)):
            rows = parent.table("lineitem").n_rows
            assert twin.table("lineitem").n_rows == rows
        assert figure_twin(small_db, build) is small
