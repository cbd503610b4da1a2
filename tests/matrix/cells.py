"""The bit-identity matrix: engine x statement x database x route.

The house standard is that every way of running a call gives the bits
of the direct single-shot engine call on the same database (on the
encoded database, for its raw twin).  This module declares that once:
the dimensions (:data:`DIMENSIONS`), how a cell runs (:class:`Matrix`),
the one assertion (:func:`assert_bit_identical`) with the only
legitimate differences (:data:`DIFFERENCES`), the one exclusions table
(:data:`EXCLUSIONS`) and the selection rule (:func:`select`).
"""

from __future__ import annotations

import functools
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from pinned import canonical_json
from repro.core import pruning
from repro.core.parallel import WorkerPool, normalized_call, run_call
from repro.engines import engine_by_name
from repro.engines.morsel import MORSEL_ALIGN, morsel_ranges
from repro.serve import protocol
from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import Coordinator
from repro.sql import compile_sql
from repro.sql.api import plan_sql
from repro.tpch.sql import (
    EXTENDED_TPCH_SQL,
    GROUPBY_SQL,
    JOIN_SQL,
    TPCH_SQL,
    projection_sql,
    selection_sql,
)

# Each statement's text is parsed once per session.
_bind = functools.cache(compile_sql)
_plan = functools.cache(plan_sql)

# --- Dimensions ---
#: Same aggregate as documented Q9, grouped by nation only: the
#: compiler declines the documented text (a derived table with
#: EXTRACT(YEAR)), and the hand-wired runner's global profit is the sum
#: of these groups' exact totals.
Q9_FLAT = """\
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)
                   - ps_supplycost * l_quantity) AS profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE s_suppkey = l_suppkey
  AND ps_suppkey = l_suppkey
  AND ps_partkey = l_partkey
  AND p_partkey = l_partkey
  AND o_orderkey = l_orderkey
  AND s_nationkey = n_nationkey
  AND p_name LIKE '%green%'
GROUP BY n_name;"""

#: The inner winners query of documented Q18 (the compiler declines
#: its IN (subquery)): the hand-wired runner reports the winner count
#: and their total quantity.
Q18_FLAT = """\
SELECT l_orderkey, SUM(l_quantity) AS qty
FROM lineitem
GROUP BY l_orderkey
HAVING SUM(l_quantity) > 300;"""


class Statement(NamedTuple):
    """A hand-wired engine call, or ``run_compiled`` over ``sql``.
    ``sql`` is what a shard route sends: text, or for selection a
    function of the database (its literals are data quantiles)."""

    method: str
    kwargs: tuple = ()
    sql: object = None

    def text(self, db) -> str:
        return self.sql(db) if callable(self.sql) else self.sql

    def options(self) -> dict:
        """The call arguments SQL cannot say, sent beside the text."""
        return {k: v for k, v in self.kwargs if k == "predicated"}

    def call(self, engine) -> tuple[str, tuple]:
        kwargs = dict(self.kwargs)
        if self.method == "run_compiled":
            kwargs["plan"] = _plan(self.sql)
        return normalized_call(engine, self.method, (), kwargs)


def _selection(selectivity: float, predicated: bool = False) -> Statement:
    flag = (("predicated", True),) if predicated else ()
    return Statement(
        "run_selection",
        (("selectivity", selectivity), *flag),
        functools.partial(selection_sql, selectivity),
    )


STATEMENTS = {
    **{f"p{d}": Statement("run_projection", (("degree", d),), projection_sql(d))
       for d in (1, 2, 4)},
    "sel10": _selection(0.1),
    "sel50": _selection(0.5),
    "sel10p": _selection(0.1, predicated=True),
    "sel2p": _selection(0.02, predicated=True),
    "join": Statement("run_join", (("size", "large"),), JOIN_SQL["large"]),
    "groupby": Statement("run_groupby", (), GROUPBY_SQL),
    "Q1": Statement("run_q1", (), TPCH_SQL["Q1"]),
    "Q6": Statement("run_q6", (), TPCH_SQL["Q6"]),
    "Q6p": Statement("run_q6", (("predicated", True),), TPCH_SQL["Q6"]),
    "Q9": Statement("run_q9", (), TPCH_SQL["Q9"]),
    "Q18": Statement("run_q18", (), TPCH_SQL["Q18"]),
    # Compiled: the documented Q1/Q6 texts, the flattened Q9/Q18, Q1/Q6
    # with one literal changed so they miss the templates (olapbench's
    # compiled_joins variants) and one multi-join.
    **{name: Statement("run_compiled", sql=sql) for name, sql in {
        "Q1c": TPCH_SQL["Q1"],
        "Q6c": TPCH_SQL["Q6"],
        "Q9f": Q9_FLAT,
        "Q18f": Q18_FLAT,
        "Q1v": TPCH_SQL["Q1"].replace("INTERVAL '90' DAY", "INTERVAL '60' DAY"),
        "Q6v": TPCH_SQL["Q6"].replace("l_quantity < 24", "l_quantity < 25"),
        "Q3": EXTENDED_TPCH_SQL["Q3"],
    }.items()},
}
COMPILED = tuple(name for name, s in STATEMENTS.items() if s.method == "run_compiled")
#: The statements with zone-map predicates (``pruning.atoms_for``).
PRUNABLE = {
    name for name, s in STATEMENTS.items()
    if s.method in ("run_q1", "run_q6", "run_selection")
}

#: Matrix name -> session fixture (``tests/conftest.py``).
DATABASES = {
    "tiny": "tiny_db",
    "raw": "raw_db",  # tiny_db with every column decoded
    "sorted": "sorted_db",  # clustered on l_shipdate: date filters prune
    "shifted": "shifted_db",  # every l_shipdate past Q6's window
    "folded": "folded_db",  # shifted at SF 0.05: Q6's pruned blocks fold k = 4
    "rollup": "rollup_db",  # partitioned, rollups attached: routes or declines
    "small": "small_db",  # the compiler suite's database
}
#: The reference of a raw-twin cell is the call on the encoded database.
REFERENCE_DATABASE = {"raw": "tiny"}


def ragged_ranges(n_rows: int) -> list[tuple[int, int]]:
    """An intentionally unbalanced tiling: a minimal lead morsel, one
    huge middle, thin slivers at the end.  Cuts are aligned to
    :data:`MORSEL_ALIGN` (the protocol rejects anything else) but the
    piece sizes are wildly uneven -- the shape work stealing produces."""
    align = MORSEL_ALIGN
    cuts = sorted({
        0,
        min(align, n_rows),
        min(3 * align, n_rows),
        (n_rows * 3 // 5) // align * align,
        (n_rows - 1) // align * align,
        n_rows,
    })
    return list(zip(cuts[:-1], cuts[1:]))


#: Inline morsel tilings, merged with ``merge_morsels``.
TILINGS = {
    **{name: functools.partial(morsel_ranges, pieces=pieces) for name, pieces in (
        ("whole", 1), ("halves", 2), ("thirds", 3), ("fifths", 5), ("sevenths", 7),
    )},
    "ragged": ragged_ranges,
}
#: The tilings the morsel and compiler suites merge over.
TILED = ("whole", "halves", "sevenths", "ragged")


def tiled(engine, db, method: str, kwargs, tiling: str):
    """The call run as the morsels of ``tiling``, merged."""
    kwargs = dict(kwargs)
    n_rows = engine.partition_rows(db, method, kwargs)
    return engine.merge_morsels(db, method, kwargs, [
        getattr(engine, method)(db, row_range=row_range, **kwargs)
        for row_range in TILINGS[tiling](n_rows)
    ])


#: ``run_call`` routes: (pooled, finish).  A partial is merged by the test.
CALL_ROUTES = {
    "call": (False, True),
    "partial": (False, False),
    "pool": (True, True),
    "pool-partial": (True, False),
}
#: Thread-spawn clusters behind ``Coordinator.execute``: (shards, mode,
#: node executor).
SHARD_ROUTES = {
    f"shard-{n}-{mode}": (n, mode, "thread") for n in (1, 2, 3) for mode in ("hash", "range")
}
SHARD_ROUTES["shard-2-hash-pooled"] = (2, "hash", "process")
#: ``pruned`` is ``pruning.execute_pruned`` under the zone-map plan,
#: whatever that plan prunes (nothing included).
ROUTES = (*TILINGS, *CALL_ROUTES, "pruned", *SHARD_ROUTES)
ENGINES = ("Typer", "Tectorwise", "DBMS R", "DBMS C")
DIMENSIONS = {
    "engine": ENGINES,
    "statement": tuple(STATEMENTS),
    "database": tuple(DATABASES),
    "route": ROUTES,
}


class Cell(NamedTuple):
    engine: str
    statement: str
    database: str
    route: str

    @property
    def id(self) -> str:
        return "-".join(self)


# --- The assertion ---
#: Every way a cell's result may legitimately differ from its
#: reference.  :func:`assert_bit_identical` allows these and nothing
#: else.
DIFFERENCES = {
    "routed": "a routed finished result reports the rollup rows it read "
    "as its tuples, and the rollup scan's work; a routed partial keeps "
    "the base-row count so cross-shard sums equal the scan's",
    "wire": "a shard response carries only value and tuples over JSON",
    "decisions": "details['rollup'] is present when a run_call route runs "
    "on a database with rollups; details['pruning'] when run_call's zone "
    "maps prune at least one morsel, and always on the pruned route",
    "raw-twin": "the raw twin has no codes: its details['encoded_agg'] "
    "reports no code-domain slot",
    "cached": "a run served from the execution cache carries "
    "details['cached']",
}
#: Databases with rollups attached ("decisions").
ROLLUP_DATABASES = {"rollup"}
#: The statements a rollup answers; the router declines every other
#: method as "unsupported-method".
ROUTABLE = {"p1", "p2", "p4", "groupby", "Q1"}
#: (database, statement) pairs whose zone maps prune "some" or "all"
#: morsels; nothing else prunes.
PRUNED = {
    **{("sorted", s): "some" for s in ("sel10", "sel50", "sel10p", "sel2p", "Q6", "Q6p")},
    **{("shifted", s): "all" for s in ("Q1", "Q6", "Q6p")},
    ("folded", "Q6"): "all",
}


def rollup_reason(cell: Cell) -> str:
    """The router's decision for a ``run_call`` cell on a database with
    rollups."""
    if cell.statement not in ROUTABLE:
        return "unsupported-method"
    if cell.statement == "Q1":
        if not CALL_ROUTES[cell.route][1]:
            return "partial-not-a-global-sum"
        if cell.engine in ("DBMS R", "DBMS C"):
            return "engine-finisher-not-decomposable"
    return "routed"


def same(a, b) -> bool:
    """Bit-identical structure: dicts with their keys in the same
    order, floats and float arrays in every bit (the sign of zero
    included), arrays in dtype and shape; NaN equals NaN."""
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            and (a.dtype.kind != "f" or np.array_equal(np.signbit(a), np.signbit(b)))
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, float) and type(a) is type(b):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def _assert_decisions(cell: Cell, rollup, pruned, context: str) -> None:
    """The "decisions" a result reports, as :data:`ROLLUP_DATABASES`,
    :func:`rollup_reason` and :data:`PRUNED` declare them."""
    __tracebackhide__ = True
    called = cell.route in CALL_ROUTES
    if called and cell.database in ROLLUP_DATABASES:
        assert rollup is not None, context
        assert rollup["reason"] == rollup_reason(cell), f"{context}: {rollup}"
        assert rollup["rollup_used"] is (rollup["reason"] == "routed"), context
    else:
        assert rollup is None, context
    declared = PRUNED.get((cell.database, cell.statement))
    reported = cell.route == "pruned" or (called and declared is not None)
    assert (pruned is not None) == reported, f"{context}: {pruned}"
    if reported:
        assert (pruned["morsels_pruned"] > 0) == (declared is not None), context
        assert (pruned["morsels_scanned"] == 0) == (declared == "all"), context


def assert_bit_identical(result, reference, cell: Cell | str) -> None:
    """``result`` (a QueryResult, or a shard response dict) carries the
    bits of ``reference``: value, tuples, WorkProfile, operator
    profiles and decision details, up to :data:`DIFFERENCES`.  Given a
    :class:`Cell`, the decisions are checked against their declaration;
    given a label, they are only set aside."""
    __tracebackhide__ = True
    context = cell.id if isinstance(cell, Cell) else str(cell)
    if isinstance(result, dict):  # "wire"
        assert result["status"] == "ok", f"{context}: {result.get('error')}"
        assert result["route"] == "scatter", context
        assert same(result["value"], protocol.jsonable(reference.value)), context
        assert result["tuples"] == reference.tuples, context
        return
    assert result.workload == reference.workload, context
    assert same(result.value, reference.value), context
    details, expected = dict(result.details), dict(reference.details)
    for key in ("cached", "rollup", "pruning"):  # "cached", "decisions"
        expected.pop(key, None)
    details.pop("cached", None)
    rollup, pruned = details.pop("rollup", None), details.pop("pruning", None)
    if isinstance(cell, Cell):
        _assert_decisions(cell, rollup, pruned, context)
    if rollup is not None and rollup["rollup_used"]:  # "routed"
        if isinstance(cell, Cell):
            finished = CALL_ROUTES[cell.route][1]
            tuples = rollup["rows_read"] if finished else reference.tuples
            assert result.tuples == tuples, context
        return
    if isinstance(cell, Cell) and cell.database == "raw" and "encoded_agg" in expected:
        assert details.pop("encoded_agg")["code_domain"] == 0, context  # "raw-twin"
        expected.pop("encoded_agg")
    assert result.tuples == reference.tuples, context
    assert_same_profile(result.work, reference.work, context)
    assert list(result.operator_work) == list(reference.operator_work), context
    for name, profile in reference.operator_work.items():
        assert_same_profile(result.operator_work[name], profile, f"{context} operator={name}")
    assert same(details, expected), f"{context}: details differ"


def assert_same_profile(result, reference, context: str) -> None:
    """Two WorkProfiles carry the same bits: every field is equal as
    canonical JSON (:func:`pinned.canonical_json`), so an int count and
    a float count of one value differ where ``==`` finds them equal.
    A failure shows each differing field."""
    __tracebackhide__ = True
    got, want = asdict(result), asdict(reference)
    differing = [
        f"{name}: {canonical_json(got[name])} != {canonical_json(value)}"
        for name, value in want.items()
        if canonical_json(got[name]) != canonical_json(value)
    ]
    assert not differing, f"{context}: work profile differs in " + "; ".join(differing)


# --- Running a cell ---
#: Pool morsel size: small, so the tiny databases split into a dozen
#: morsels and the pool merges (and steals) for real; the SF 0.02 ones
#: take four times as many rows per morsel.
POOL_MORSEL_ROWS = 1024
LARGE_DATABASES = {"sorted", "small"}


class Matrix:
    """Runs cells.  Engines, pools (one 2-worker pool per database) and
    clusters (one per database and shard route) are made on first use;
    :meth:`close` winds them down."""

    def __init__(self, fixture):
        self.db = lambda name: fixture(DATABASES[name])
        self.engine = engine_by_name
        self._pools: dict = {}
        self._coordinators: dict = {}

    def pool(self, database: str) -> WorkerPool:
        if database not in self._pools:
            rows = POOL_MORSEL_ROWS * (4 if database in LARGE_DATABASES else 1)
            self._pools[database] = WorkerPool(
                self.db(database), n_workers=2, morsel_rows=rows
            )
        return self._pools[database]

    def coordinator(self, database: str, route: str) -> Coordinator:
        if (database, route) not in self._coordinators:
            n_shards, mode, node_executor = SHARD_ROUTES[route]
            db = self.db(database)
            cluster = ShardCluster(
                db, n_shards=n_shards, mode=mode, spawn="thread",
                node_executor=node_executor,
            )
            self._coordinators[database, route] = Coordinator(db, cluster)
        return self._coordinators[database, route]

    def close(self) -> None:
        # In parallel: a pool's close waits for its interpreters to exit.
        owners = [*self._pools.values(), *(c.cluster for c in self._coordinators.values())]
        with ThreadPoolExecutor() as executor:
            list(executor.map(lambda owner: owner.close(), owners))

    def run(self, cell: Cell):
        """(result, reference) of one cell."""
        engine, db = self.engine(cell.engine), self.db(cell.database)
        statement = STATEMENTS[cell.statement]
        if cell.route in SHARD_ROUTES:
            sql, options = statement.text(db), statement.options()
            result = self.coordinator(cell.database, cell.route).execute(
                sql, engine=cell.engine, options=options
            )
            bound = _bind(sql)
            method, items = normalized_call(
                engine, bound.method, bound.args, {**bound.call_kwargs(), **options}
            )
        else:
            method, items = statement.call(engine)
            result = self._run_here(cell, engine, db, method, items)
        reference_db = self.db(REFERENCE_DATABASE.get(cell.database, cell.database))
        return result, getattr(engine, method)(reference_db, **dict(items))

    def _run_here(self, cell: Cell, engine, db, method: str, items: tuple):
        kwargs = dict(items)
        if cell.route in TILINGS:
            return tiled(engine, db, method, kwargs, cell.route)
        if cell.route == "pruned":
            plan = pruning.compute_prune_plan(db, pruning.atoms_for(db, method, kwargs))
            result = pruning.execute_pruned(engine, db, method, kwargs, plan)
            assert result.details["pruning"]["morsels_pruned"] == plan.chunks_pruned
            return result
        pooled, finish = CALL_ROUTES[cell.route]
        result = run_call(
            db, engine, method, items,
            pool=self.pool(cell.database) if pooled else None,
            finish=finish,
            executor="process" if pooled else "thread",
        )
        if finish:
            return result
        assert result.value is None and "partial" in result.details
        merged = engine.merge_morsels(db, method, items, [result])
        for key in ("rollup", "pruning"):
            if key in result.details:
                merged.details[key] = result.details[key]
        return merged

    def check(self, cells) -> None:
        """Assert every cell in ``cells``."""
        __tracebackhide__ = True
        for cell in cells:
            assert_bit_identical(*self.run(cell), cell)


# --- Exclusions and selection ---
class Exclusion(NamedTuple):
    """The cells whose values are in ``values`` on every named
    dimension.  A rule over exactly two dimensions also exempts those
    pairs from pair coverage."""

    values: dict
    reason: str

    def matches(self, cell: Cell) -> bool:
        return all(getattr(cell, dim) in vals for dim, vals in self.values.items())

    def pairs(self) -> set:
        if len(self.values) != 2:
            return set()
        (dim_a, vals_a), (dim_b, vals_b) = sorted(
            self.values.items(), key=lambda item: Cell._fields.index(item[0])
        )
        return {((dim_a, a), (dim_b, b)) for a in vals_a for b in vals_b}


_ITSELF = (
    "run_call with nothing to route or prune is the plain engine call, "
    "served from the execution-cache entry the reference reads: such a "
    "cell asserts only the absent decisions, so it covers no pair"
)
EXCLUSIONS: tuple[Exclusion, ...] = (
    Exclusion(
        {"statement": {"Q1c", "Q6c"}, "route": set(SHARD_ROUTES)},
        "the documented Q1/Q6 texts lower to the hand-wired templates, so "
        "a shard route cannot send their compiled form; Q1v/Q6v compile",
    ),
    Exclusion(
        {"database": set(DATABASES) - {"tiny"}, "route": {"shard-2-hash-pooled"}},
        "every node of this layout spawns its own process pool; it runs on "
        "tiny_db, and the thread-node layouts carry the other databases "
        "through the same coordinator merge",
    ),
    Exclusion(
        {"statement": set(STATEMENTS) - PRUNABLE, "route": {"pruned"}},
        "no zone-map predicate (pruning.atoms_for), so there is no plan to "
        "execute under",
    ),
    Exclusion({"database": {"tiny", "small"}, "route": {"call"}}, _ITSELF),
    Exclusion(
        {"statement": set(STATEMENTS) - {"Q6"}, "database": {"folded"}},
        "the folded database exists for one shape, several equal pruned "
        "blocks per key; Q6 on shifted covers the other statements' all-"
        "pruned edge at a tenth of the rows",
    ),
    Exclusion(
        {"database": {"folded"}, "route": set(ROUTES) - {"pruned", "pool"}},
        "the fold runs in pruning.pruned_partials on every executor; the "
        "pruned (inline) and pool (parent-side synthesis) routes reach it, "
        "and shifted carries the all-pruned edge on the other routes",
    ),
    *(
        Exclusion({
            "statement": set(STATEMENTS) - {s for d, s in PRUNED if d == database},
            "database": {database},
            "route": {"call"},
        }, _ITSELF)
        for database in ("sorted", "shifted")
    ),
)


def excluded(cell: Cell) -> Exclusion | None:
    return next((rule for rule in EXCLUSIONS if rule.matches(cell)), None)


def pairs(cell: Cell) -> set:
    """The value pairs ``cell`` covers: none if it is excluded."""
    return set() if excluded(cell) else set(combinations(zip(Cell._fields, cell), 2))


def uncovered(cells) -> set:
    """The value pairs no cell of ``cells`` covers and no rule exempts."""
    every = {
        ((dim_a, a), (dim_b, b))
        for dim_a, dim_b in combinations(Cell._fields, 2)
        for a in DIMENSIONS[dim_a]
        for b in DIMENSIONS[dim_b]
    }
    exempt = set().union(*(rule.pairs() for rule in EXCLUSIONS))
    return every - exempt - set().union(*map(pairs, cells))


#: Cells every selection holds: Q18 on every shard layout for all four
#: engines, and every compiled statement on the pool and every shard
#: route.
REQUIRED = [
    *(Cell(engine, "Q18", "tiny", route) for engine in ENGINES for route in SHARD_ROUTES),
    *(
        Cell(ENGINES[i % len(ENGINES)], statement, "tiny", route)
        for statement in COMPILED
        for i, route in enumerate(("pool", "pool-partial", *SHARD_ROUTES))
    ),
]


def select(seed) -> list[Cell]:
    """``seed`` (the cells the suites assert) and :data:`REQUIRED`,
    then for each pair still uncovered the non-excluded cell holding it
    that covers the most uncovered pairs."""
    chosen = list(dict.fromkeys([*seed, *(c for c in REQUIRED if not excluded(c))]))
    todo = uncovered(chosen)
    for pair in sorted(todo):
        if pair not in todo:
            continue
        fixed = dict(pair)
        free = [dim for dim in Cell._fields if dim not in fixed]
        candidates = (
            Cell(**fixed, **dict(zip(free, values)))
            for values in product(*(DIMENSIONS[dim] for dim in free))
        )
        best = max(candidates, key=lambda cell: len(pairs(cell) & todo))
        if pairs(best) & todo:  # else every cell holding the pair is excluded
            chosen.append(best)
            todo -= pairs(best)
    return chosen
