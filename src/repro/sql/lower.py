"""Lowering: logical plan -> a bound engine entry point.

The engines execute hand-wired physical plans (``run_projection``,
``run_selection``, ``run_join``, ``run_groupby``, ``run_tpch``) for the
workloads the paper profiles, and compiled kernel programs
(``run_compiled``) for everything else.  Lowering tries, in order:

* **Template equality** -- the four TPC-H queries, the three join
  sizes, the group-by and the four projection degrees are planned once
  from their documented SQL (:mod:`repro.tpch.sql`) and matched by
  structural plan equality, so anything the documentation says is
  runnable *is* runnable, on its hand-wired path.
* **The selection matcher** -- the selection micro-benchmark's
  thresholds are data-dependent quantiles, so its shape matches with
  the three thresholds free.
* **Compilation** -- any other plan is handed to :mod:`repro.compile`,
  which turns any supported select/join/group/aggregate shape into a
  fused vectorized kernel program executed through
  ``Engine.run_compiled``.  An aliased or regrouped variant of a
  documented statement therefore runs compiled and returns what its
  SQL asks for.

A plan the compiler also declines raises :class:`SqlError` describing
the full supported surface and the nearest profiled workload: the
engines model fixed workloads plus the compilable fragment, and
pretending otherwise would silently profile the wrong thing.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from repro.engines.base import TPCH_RUNNERS
from repro.sql import plan as ir
from repro.sql.errors import SqlError, err
from repro.tpch.schema import PROJECTION_COLUMNS, SELECTION_PREDICATE_COLUMNS


@dataclass(frozen=True)
class BoundQuery:
    """A logical plan resolved to one engine method and its arguments.

    ``kwargs`` is a tuple of (name, value) pairs so bound queries stay
    hashable (the serve layer caches them per statement).  ``shape`` is
    the statement's shape text when it was compiled from SQL.
    """

    workload: str
    method: str
    args: tuple = ()
    kwargs: tuple = ()
    plan: ir.PlanNode | None = field(default=None, compare=False)
    shape: str | None = field(default=None, compare=False, repr=False)

    def call_kwargs(self) -> dict:
        return dict(self.kwargs)

    def execute(self, engine, db, **overrides):
        """Run the bound path on ``engine`` against ``db``.

        ``overrides`` merge over the bound keyword arguments, so request
        options like ``simd=True`` or ``predicated=True`` pass through
        to engines that accept them.
        """
        merged = self.call_kwargs()
        merged.update(overrides)
        return getattr(engine, self.method)(db, *self.args, **merged)

    def __str__(self) -> str:
        parts = [repr(a) for a in self.args]
        # The compiled path carries the whole logical plan as an
        # argument; elide it (the plan is printed separately everywhere
        # a binding is shown).
        parts += [
            f"{k}=<plan>" if k == "plan" else f"{k}={v!r}"
            for k, v in self.kwargs
        ]
        return f"{self.workload}: {self.method}({', '.join(parts)})"


# ----------------------------------------------------------------------
# Template plans from the documented SQL
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _template_index() -> dict[ir.PlanNode, BoundQuery]:
    """Stripped plan -> bound call, for every documented workload whose
    SQL has no data-dependent literals (selection thresholds are the
    one exception; they match structurally below)."""
    # Imported here: tpch.sql and the parser/planner sit above this
    # module in the package graph only at call time, never at import.
    from repro.sql.parser import parse
    from repro.sql.planner import Planner
    from repro.tpch.sql import GROUPBY_SQL, JOIN_SQL, TPCH_SQL, projection_sql

    planner = Planner()

    def planned(sql: str) -> ir.PlanNode:
        return ir.strip_decorations(planner.plan(parse(sql), sql))

    index: dict[ir.PlanNode, BoundQuery] = {}
    for query_id, sql in TPCH_SQL.items():
        index[planned(sql)] = BoundQuery(
            workload=f"tpch-{query_id}", method="run_tpch", args=(query_id,)
        )
    for size, sql in JOIN_SQL.items():
        index[planned(sql)] = BoundQuery(
            workload=f"join-{size}", method="run_join", args=(size,)
        )
    for degree in range(1, len(PROJECTION_COLUMNS) + 1):
        index[planned(projection_sql(degree))] = BoundQuery(
            workload=f"projection-{degree}", method="run_projection", args=(degree,)
        )
    index[planned(GROUPBY_SQL)] = BoundQuery(
        workload="groupby", method="run_groupby"
    )
    return index


# ----------------------------------------------------------------------
# The selection matcher (the thresholds are free parameters)
# ----------------------------------------------------------------------


def _sum_of_columns(outputs: tuple[ir.NamedExpr, ...]) -> tuple[str, ...] | None:
    """Column names if ``outputs`` is a single SUM over a + of columns."""
    if len(outputs) != 1:
        return None
    expr = outputs[0].expr
    if not (isinstance(expr, ir.AggCall) and expr.func == "sum" and expr.arg is not None):
        return None
    columns = []
    for term in ir.flatten_sum(expr.arg):
        if not isinstance(term, ir.ColumnExpr):
            return None
        columns.append(term.ref.column)
    return tuple(columns)


def _match_selection(core: ir.PlanNode) -> BoundQuery | None:
    if not (
        isinstance(core, ir.Aggregate)
        and not core.group_by
        and core.having is None
        and isinstance(core.child, ir.Filter)
        and core.child.child == ir.Scan(table="lineitem")
    ):
        return None
    if _sum_of_columns(core.outputs) != PROJECTION_COLUMNS:
        return None
    if len(core.child.predicates) != len(SELECTION_PREDICATE_COLUMNS):
        return None
    thresholds: dict[str, float] = {}
    for predicate in core.child.predicates:
        if not (
            isinstance(predicate, ir.Compare)
            and predicate.op == "<="
            and isinstance(predicate.left, ir.ColumnExpr)
            and isinstance(predicate.right, ir.ConstExpr)
        ):
            return None
        thresholds[predicate.left.ref.column] = predicate.right.value
    if tuple(sorted(thresholds)) != tuple(sorted(SELECTION_PREDICATE_COLUMNS)):
        return None
    ordered = tuple(thresholds[column] for column in SELECTION_PREDICATE_COLUMNS)
    return BoundQuery(
        workload="selection",
        method="run_selection",
        kwargs=(("selectivity", None), ("thresholds", ordered)),
    )


def lower(plan: ir.PlanNode, sql: str | None = None) -> BoundQuery:
    """Bind a logical plan onto an engine entry point, or raise."""
    core = ir.strip_decorations(plan)
    bound = _template_index().get(core) or _match_selection(core)
    if bound is not None:
        return dataclasses.replace(bound, plan=plan)
    from repro.compile import CompileError
    from repro.compile.program import compiled_program

    try:
        program = compiled_program(plan)
    except CompileError as exc:
        raise _no_binding(plan, sql, str(exc)) from None
    # Compiled programs partition their own driving table and merge
    # exactly, but they stay outside zone-map pruning and rollup
    # routing: ``pruning.atoms_for`` / ``router.profile_for`` know the
    # hand-wired runners only and decline ``run_compiled``.
    return BoundQuery(
        workload=program.workload,
        method="run_compiled",
        kwargs=(("plan", plan),),
        plan=plan,
    )


def _plan_features(node) -> frozenset[str]:
    """Structural fingerprint of a plan for nearest-workload hints:
    tables scanned, columns referenced, aggregate functions, and coarse
    shape markers (join / grouped)."""
    features: set[str] = set()
    for obj in _nodes(node):
        if isinstance(obj, ir.ColRef):
            features.add(f"table:{obj.table}")
            features.add(f"column:{obj.table}.{obj.column}")
        elif isinstance(obj, ir.Scan):
            features.add(f"table:{obj.table}")
        elif isinstance(obj, ir.Join):
            features.add("shape:join")
        elif isinstance(obj, ir.Aggregate):
            features.add("shape:grouped" if obj.group_by else "shape:global")
        elif isinstance(obj, ir.AggCall):
            features.add(f"agg:{obj.func}")
    return frozenset(features)


def _nodes(plan) -> list:
    """Every plan node and expression under ``plan``, itself included
    (the plan classes are plain frozen dataclasses: their fields are
    their instance dicts)."""
    found, pending = [], [plan]
    while pending:
        obj = pending.pop()
        if isinstance(obj, (tuple, list)):
            pending.extend(obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            found.append(obj)
            pending.extend(vars(obj).values())
    return found


def tables_read(plan: ir.PlanNode) -> frozenset[str]:
    """The stored tables ``plan`` scans."""
    return frozenset(node.table for node in _nodes(plan) if isinstance(node, ir.Scan))


def _nearest_workload(core: ir.PlanNode) -> str | None:
    """The documented workload whose plan shares the most structure
    with ``core`` (Jaccard overlap of :func:`_plan_features`), as a
    'did you mean' hint.  None when nothing overlaps at all."""
    target = _plan_features(core)
    if not target:
        return None
    best_name, best_score = None, 0.0
    for template_plan, bound in sorted(
        _template_index().items(), key=lambda item: item[1].workload
    ):
        candidate = _plan_features(template_plan)
        union = target | candidate
        score = len(target & candidate) / len(union) if union else 0.0
        if score > best_score:
            best_name, best_score = bound.workload, score
    return best_name


def _no_binding(plan: ir.PlanNode, sql: str | None, compile_reason: str) -> SqlError:
    """Describe the *full* supported surface: documented templates,
    the selection's free thresholds, the per-query TPC-H runners behind
    ``run_tpch``, and the compiled fallback."""
    core = ir.strip_decorations(plan)
    known = sorted({bound.workload for bound in _template_index().values()})
    runners = ", ".join(
        f"{query_id}->{runner}" for query_id, runner in sorted(TPCH_RUNNERS.items())
    )
    lines = [
        "query is valid but does not match any profiled workload and "
        "could not be compiled.",
        f"- documented templates: {', '.join(known)}",
        "- parameterised shapes: selection with free thresholds over "
        f"{', '.join(SELECTION_PREDICATE_COLUMNS)}",
        f"- TPC-H runners: {runners}",
        "- compiled fallback: single-block select / equi-join / "
        "group-by / SUM-COUNT-AVG aggregate plans over the stored "
        "schema lower to fused kernel programs (run_compiled)",
        f"- the compiler declined this plan: {compile_reason}",
    ]
    nearest = _nearest_workload(core)
    if nearest:
        lines.append(f"- nearest profiled workload by plan structure: {nearest}")
    lines.append(f"plan was:\n{ir.to_text(plan)}")
    return err("\n".join(lines), sql, None)
