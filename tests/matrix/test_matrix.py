"""The matrix's own cells and its selection rule.

Cells a suite asserts run there under the suite's ids
(:mod:`matrix.suites`); this module runs the cells the selection added
and checks the selection itself.
"""

from __future__ import annotations

import pytest

from matrix.cells import (
    COMPILED, DIMENSIONS, ENGINES, EXCLUSIONS, SHARD_ROUTES, excluded, uncovered,
)
from matrix.suites import ADDED, SELECTED


@pytest.mark.parametrize("cell", ADDED, ids=lambda cell: cell.id)
def test_cell(matrix, cell):
    matrix.check([cell])


def test_every_pair_is_selected_or_excluded():
    assert not uncovered(SELECTED), sorted(uncovered(SELECTED))[:10]


def test_exclusions_are_declared_and_never_added():
    assert len(SELECTED) == len(set(SELECTED))
    assert [cell for cell in ADDED if excluded(cell)] == []
    for rule in EXCLUSIONS:
        assert rule.reason and len(rule.values) >= 2
        for dim, values in rule.values.items():
            assert set(values) <= set(DIMENSIONS[dim]), (dim, values)


def test_selection_holds_the_required_cells():
    selected = set(SELECTED)
    assert {route for *_, route in selected} == set(DIMENSIONS["route"])
    shard_q18 = {(c.engine, c.route) for c in selected if c.statement == "Q18"}
    assert {(e, r) for e in ENGINES for r in SHARD_ROUTES} <= shard_q18
    for statement in COMPILED:
        routes = {c.route for c in selected if c.statement == statement}
        assert {"pool", "pool-partial"} <= routes, statement
        if statement not in ("Q1c", "Q6c"):  # see EXCLUSIONS
            assert set(SHARD_ROUTES) <= routes, statement
    raw = {c.route for c in selected if c.database == "raw"}
    assert {"pool", "pool-partial", *SHARD_ROUTES} - {"shard-2-hash-pooled"} <= raw
