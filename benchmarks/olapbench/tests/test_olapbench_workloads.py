import pytest

from workloads import WORKLOADS, AdhocOps, FixedOps


@pytest.fixture(scope="module")
def tiny_db():
    from repro.tpch import generate_database

    return generate_database(scale_factor=0.002, seed=7)


def texts(source, rounds=3):
    return [[(op.cls, op.sql, op.engine) for op in source.round(r)] for r in range(rounds)]


def test_fixed_ops_same_seed_same_list_other_seed_differs():
    statements = {f"s{i}": f"SELECT {i};" for i in range(10)}
    first = texts(FixedOps(statements, ("Typer", "Tectorwise"), seed=5))
    assert first == texts(FixedOps(statements, ("Typer", "Tectorwise"), seed=5))
    assert first != texts(FixedOps(statements, ("Typer", "Tectorwise"), seed=6))
    # every round is the whole class list, in another order
    assert all(sorted(round_) == sorted(first[0]) for round_ in first)
    assert first[0] != first[1]


def test_adhoc_ops_draw_their_literals_from_the_seed(tiny_db):
    first = texts(AdhocOps(tiny_db, seed=5))
    assert first == texts(AdhocOps(tiny_db, seed=5))
    assert first != texts(AdhocOps(tiny_db, seed=6))
    classes = {cls for round_ in first for cls, _, _ in round_}
    assert len(classes) == 8
    fresh = [sql for round_ in first for cls, sql, _ in round_ if cls.endswith("/fresh")]
    assert len(set(fresh)) == len(fresh), "a fresh text must never repeat"
    hot = {op.sql for op in AdhocOps(tiny_db, seed=5).warmup()}
    assert len(hot) == 16
    repeats = {sql for round_ in first for cls, sql, _ in round_ if cls.endswith("/repeat")}
    assert repeats <= hot


def test_every_generated_statement_compiles(tiny_db):
    from repro.sql import compile_sql

    source = AdhocOps(tiny_db, seed=9)
    for op in source.warmup() + source.round(0):
        compile_sql(op.sql)


def test_class_lists(tiny_db):
    sizes = {
        name: len(WORKLOADS[name].ops(tiny_db, 1).classes)
        for name in ("scan_thread", "scan_process", "scan_shard2",
                     "compiled_joins", "reuse_clustered")
    }
    assert sizes == {"scan_thread": 20, "scan_process": 20, "scan_shard2": 18,
                     "compiled_joins": 16, "reuse_clustered": 14}
    shard_classes = {op.cls for op in WORKLOADS["scan_shard2"].ops(tiny_db, 1).classes}
    assert not any(cls.startswith("Q18/") for cls in shard_classes)
