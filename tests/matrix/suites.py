"""The cells each bit-identity suite asserts, under that suite's test ids.

The suites keep their test functions and ids, each one's body
``matrix.check(cells)``.  :data:`SUITES` maps ``"<suite>::<test>"`` to
``{test id: cells}`` (id ``""`` for an unparametrized test); the
selection starts from their union (:data:`SELECTED`), and
``tests/matrix/test_matrix.py`` runs the cells no suite holds
(:data:`ADDED`).
"""

from __future__ import annotations

import pytest

from matrix.cells import ENGINES, STATEMENTS, TILED, Cell, select


def _workload_id(statement: str) -> str:
    """The id the suites gave a hand-wired call: ``q6-predicatedTrue``."""
    s = STATEMENTS[statement]
    return f"{s.method[len('run_'):]}-{'-'.join(f'{k}{v}' for k, v in s.kwargs) or 'default'}"


PRUNABLE = ("Q6", "Q6p", "Q1", "sel10", "sel2p")
SHARD_QUERIES = {
    "Q1": "Q1", "Q18-compiled": "Q18f", "Q6": "Q6", "groupby": "groupby", "projection": "p2",
}
COMPILED_IDS = {"Q1": "Q1c", "Q6": "Q6c", "Q9-flat": "Q9f", "Q18-flat": "Q18f"}
CALL_SCENARIOS = {  # scenario -> (database, statement)
    "plain": ("tiny", "Q6"),  # shuffled: nothing prunes
    "pruned": ("sorted", "Q6"),
    "all-pruned": ("shifted", "Q6"),
    "routed": ("rollup", "groupby"),
    "declined": ("rollup", "Q6"),
}
ROLLUP_IDS = {"proj1": "p1", "proj4": "p4", "groupby": "groupby", "q1": "Q1"}

SUITES: dict[str, dict[str, list[Cell]]] = {
    "shard::test_sharded_matches_single_node_exactly": {
        f"{n}shard-{mode}-{query}-{engine}": [
            Cell(engine, SHARD_QUERIES[query], "tiny", f"shard-{n}-{mode}")
        ]
        for n in (1, 2, 3) for mode in ("hash", "range")
        for query in sorted(SHARD_QUERIES) for engine in ENGINES
    },
    "shard::test_process_executor_nodes_match_single_node": {
        "": [Cell("Typer", q, "tiny", "shard-2-hash-pooled") for q in ("Q1", "Q6")],
    },
    "shard::test_template_q18_over_two_hash_shards": {
        engine: [Cell(engine, "Q18", "tiny", "shard-2-hash")]
        for engine in ("Typer", "Tectorwise")
    },
    "morsel::test_every_partitioning_matches_single_shot": {
        f"{engine}-{_workload_id(s)}": [Cell(engine, s, "tiny", tiling) for tiling in TILED]
        for engine in ENGINES
        for s in ("p2", "p4", "sel50", "sel10p", "join", "groupby", "Q1", "Q6", "Q9", "Q18")
    },
    "encoded::test_results_and_work_match": {
        f"{engine}-{_workload_id(s)}": [Cell(engine, s, "raw", "call")]
        for engine in ENGINES
        for s in ("p4", "sel50", "sel10p", "join", "groupby", "Q1", "Q6", "Q9", "Q18")
    },
    "encoded::test_merged_matches_raw_merged": {
        f"{engine}-{pieces}-{name}": [Cell(engine, s, "raw", tiling)]
        for engine in ENGINES
        for pieces, tiling in ((2, "halves"), (5, "fifths"))
        for name, s in (("q1", "Q1"), ("q6", "Q6"), ("selection", "sel50"), ("groupby", "groupby"))
    },
    "encoded::test_toggle_off_matches_toggle_on": {
        f"{engine}-{name}": [Cell(engine, s, "raw", "call")]
        for engine in ENGINES
        for name, s in (
            ("q1", "Q1"), ("groupby", "groupby"), ("projection-p1", "p1"), ("projection-p4", "p4"),
        )
    },
    "encoded::test_pool_spawned_with_toggle_off_matches_single_shot": {
        "": [Cell("Tectorwise", "Q1", "raw", "pool")],
    },
    "pruning::test_pruned_equals_single_shot": {
        f"{engine}-{_workload_id(s)}": [Cell(engine, s, "sorted", "pruned")]
        for engine in ENGINES for s in PRUNABLE
    },
    "pruning::test_all_pruned_edge": {
        engine: [Cell(engine, "Q6", "shifted", "pruned")] for engine in ENGINES
    },
    "pruning::test_folded_blocks_match_single_shot": {
        f"{engine}-{route}": [Cell(engine, "Q6", "folded", route)]
        for engine in ENGINES for route in ("pruned", "pool")
    },
    "pruning::test_q6_matches_merged_partition": {
        str(pieces): [Cell("Typer", "Q6", "sorted", route) for route in ("pruned", tiling)]
        for pieces, tiling in ((1, "whole"), (3, "thirds"), (7, "sevenths"))
    },
    "pruning::test_pool_matches_single_shot": {
        _workload_id(s): [Cell("Tectorwise", s, "sorted", "pool")] for s in PRUNABLE
    },
    "pruning::test_pool_all_pruned_edge": {"": [Cell("Typer", "Q6", "shifted", "pool")]},
    "pruning::test_pool_disabled_pruning_still_matches": {
        "": [Cell("Typer", "groupby", "sorted", "pool")],
    },
    "parallel::test_pool_results_bit_identical": {
        engine: [
            Cell(engine, s, "tiny", "pool")
            for s in ("p4", "sel50", "join", "groupby", "Q1", "Q6p", "Q9", "Q18")
        ]
        for engine in ENGINES
    },
    "parallel::test_equals_direct_call": {
        f"{where}-{how}-{scenario}-{engine}": [Cell(engine, statement, database, route)]
        for where, how, route in (
            ("inline", "finish", "call"), ("inline", "partial", "partial"),
            ("pool", "finish", "pool"), ("pool", "partial", "pool-partial"),
        )
        for scenario, (database, statement) in sorted(CALL_SCENARIOS.items())
        for engine in ("Typer", "Tectorwise", "DBMS C")
    },
    "compile::test_partitionings_match_single_shot": {
        f"{engine}-{qid}": [Cell(engine, s, "small", tiling) for tiling in TILED]
        for engine in ENGINES for qid, s in COMPILED_IDS.items()
    },
    "compile::test_pool_matches_single_shot": {
        f"{engine}-{qid}": [Cell(engine, s, "small", "pool")]
        for engine in ENGINES for qid, s in COMPILED_IDS.items()
    },
    "rollup::test_routed_matches_base": {
        f"{name}-{engine}": [Cell(engine, s, "rollup", "call")]
        for name, s in ROLLUP_IDS.items() for engine in ENGINES
    },
    "rollup::test_pool_matches_single_shot": {
        name: [Cell("Typer", ROLLUP_IDS[name], "rollup", "pool")]
        for name in ("proj1", "proj4", "groupby")
    },
    "rollup::test_pool_fallback_still_matches": {"": [Cell("Typer", "Q6", "rollup", "pool")]},
    "rollup::test_pool_disabled_routing_still_matches": {
        "": [Cell("Typer", "groupby", "tiny", "pool")],
    },
}

SUITE_CELLS = [cell for tests in SUITES.values() for cells in tests.values() for cell in cells]
SELECTED = select(SUITE_CELLS)
ADDED = SELECTED[len(set(SUITE_CELLS)):]


def cases(key: str):
    """The parametrization of suite test ``key``: one case per old id."""
    return pytest.mark.parametrize("cells", list(SUITES[key].values()), ids=list(SUITES[key]))


def cells(key: str) -> list[Cell]:
    """The cells of unparametrized suite test ``key``."""
    return SUITES[key][""]
