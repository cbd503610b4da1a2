"""Benchmark fixtures: shared TPC-H databases.

``REPRO_SF`` (:func:`repro.settings.scale_factor`) controls the default
scale factor (0.3 keeps the scanned columns beyond the modelled L3).
The join-regime figures additionally use an SF 1.0 database whose
large-join hash table (~68 MB) exceeds the L3 the way the paper's SF 5
setup does.

Both fixtures are served through the dbgen cache
(:mod:`repro.tpch.dbcache`): the first session generates and persists
each database under ``~/.cache/repro`` (override with
``REPRO_CACHE_DIR``), and every later session -- and the second of the
two fixtures within one session, when their parameters coincide --
memory-maps the persisted columns instead of regenerating them.
"""

from __future__ import annotations

import pytest

from repro import settings
from repro.tpch import generate_database

BENCH_SF = settings.scale_factor()
JOIN_SF = 1.0


@pytest.fixture(scope="session")
def bench_db():
    """Database for the scan/TPC-H/commercial experiments."""
    return generate_database(scale_factor=BENCH_SF, seed=42)


@pytest.fixture(scope="session")
def join_db():
    """Database whose large-join structures exceed the modelled L3."""
    return generate_database(
        scale_factor=max(JOIN_SF, BENCH_SF),
        seed=42,
        tables=("lineitem", "orders", "supplier", "nation", "partsupp"),
    )


@pytest.fixture
def regenerate(benchmark):
    """Run one registry experiment under pytest-benchmark and print the
    regenerated table/figure."""

    def run(experiment_id: str, db):
        from repro.analysis import EXPERIMENTS

        spec = EXPERIMENTS[experiment_id]
        figure = benchmark.pedantic(
            lambda: spec.execute(db=db), rounds=1, iterations=1, warmup_rounds=0
        )
        print()
        print(figure.to_text())
        if spec.paper_claim:
            print(f"paper: {spec.paper_claim}")
        assert figure.rows
        return figure

    return run
