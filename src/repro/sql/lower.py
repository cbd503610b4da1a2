"""Lowering: logical plan -> a bound engine entry point.

The engines execute hand-wired physical plans (``run_projection``,
``run_selection``, ``run_join``, ``run_groupby``, ``run_tpch``); this
module recognises which of those paths an incoming logical plan
computes and binds the call.  Recognition is exact, in two layers:

* **Template equality** -- the four TPC-H queries, the three join
  sizes, the group-by and the four projection degrees are planned once
  from their documented SQL (:mod:`repro.tpch.sql`) and matched by
  structural plan equality, so anything the documentation says is
  runnable *is* runnable.
* **Structural matching** -- the micro-benchmarks additionally match by
  shape with free parameters (projection degree, per-column selection
  thresholds, join size), so e.g. a selection with thresholds taken
  from a different scale factor still lowers.

* **Compilation fallback** -- a plan matching no hand-wired template is
  handed to :mod:`repro.compile`, which turns any supported
  select/join/group/aggregate shape into a fused vectorized kernel
  program executed through ``Engine.run_compiled``.  Only when the
  compiler also declines does lowering raise.

A plan that matches nothing raises :class:`SqlError` describing the
full supported surface and the nearest profiled workload: the engines
model fixed workloads plus the compilable fragment, and pretending
otherwise would silently profile the wrong thing.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from repro import settings
from repro.engines.base import TPCH_RUNNERS
from repro.sql import plan as ir
from repro.sql.errors import SqlError, err
from repro.tpch.schema import PROJECTION_COLUMNS, SELECTION_PREDICATE_COLUMNS

#: Engine methods a plan may bind to.
BINDABLE_METHODS = (
    "run_projection",
    "run_selection",
    "run_join",
    "run_groupby",
    "run_tpch",
    "run_compiled",
)


@dataclass(frozen=True)
class BoundQuery:
    """A logical plan resolved to one engine method and its arguments.

    ``kwargs`` is a tuple of (name, value) pairs so bound queries stay
    hashable (the serve layer caches them per normalized SQL text).
    """

    workload: str
    method: str
    args: tuple = ()
    kwargs: tuple = ()
    plan: ir.PlanNode | None = field(default=None, compare=False)

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
# Structural matchers (micro-benchmarks with free parameters)
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


def _match_projection(core: ir.PlanNode) -> BoundQuery | None:
    if not (
        isinstance(core, ir.Aggregate)
        and not core.group_by
        and core.having is None
        and core.child == ir.Scan(table="lineitem")
    ):
        return None
    columns = _sum_of_columns(core.outputs)
    for degree in range(1, len(PROJECTION_COLUMNS) + 1):
        if columns == PROJECTION_COLUMNS[:degree]:
            return BoundQuery(
                workload=f"projection-{degree}",
                method="run_projection",
                args=(degree,),
            )
    return None


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


def _match_join(core: ir.PlanNode) -> BoundQuery | None:
    from repro.engines.base import JOIN_SPECS

    if not (
        isinstance(core, ir.Aggregate)
        and not core.group_by
        and core.having is None
        and isinstance(core.child, ir.Join)
        and isinstance(core.child.left, ir.Scan)
        and isinstance(core.child.right, ir.Scan)
        and len(core.child.pairs) == 1
    ):
        return None
    columns = _sum_of_columns(core.outputs)
    if columns is None:
        return None
    join = core.child
    tables = {join.left.table, join.right.table}
    (left_key, right_key), = join.pairs
    keys = {left_key.column, right_key.column}
    for size, spec in JOIN_SPECS.items():
        if (
            tables == {spec.build_table, spec.probe_table}
            and keys == {spec.build_key, spec.probe_key}
            and columns == spec.sum_columns
        ):
            return BoundQuery(
                workload=f"join-{size}", method="run_join", args=(size,)
            )
    return None


def _match_groupby(core: ir.PlanNode) -> BoundQuery | None:
    if not (
        isinstance(core, ir.Aggregate)
        and core.having is None
        and core.child == ir.Scan(table="lineitem")
    ):
        return None
    group_columns = tuple(ref.column for ref in core.group_by)
    if group_columns != ("l_partkey", "l_returnflag"):
        return None
    aggregates = [
        out.expr for out in core.outputs if isinstance(out.expr, ir.AggCall)
    ]
    if len(aggregates) != 1:
        return None
    agg = aggregates[0]
    if not (
        agg.func == "sum"
        and agg.arg == ir.ColumnExpr(ref=ir.ColRef(table="lineitem", column="l_extendedprice"))
    ):
        return None
    return BoundQuery(workload="groupby", method="run_groupby")


_MATCHERS = (_match_projection, _match_selection, _match_join, _match_groupby)


def lower(plan: ir.PlanNode, sql: str | None = None) -> BoundQuery:
    """Bind a logical plan onto an engine entry point, or raise."""
    core = ir.strip_decorations(plan)
    template = _template_index().get(core)
    if template is not None:
        return BoundQuery(
            workload=template.workload,
            method=template.method,
            args=template.args,
            kwargs=template.kwargs,
            plan=plan,
        )
    for matcher in _MATCHERS:
        bound = matcher(core)
        if bound is not None:
            return BoundQuery(
                workload=bound.workload,
                method=bound.method,
                args=bound.args,
                kwargs=bound.kwargs,
                plan=plan,
            )
    compile_reason = None
    from repro.compile import CompileError

    if settings.enabled("compile"):
        from repro.compile.program import compiled_program

        try:
            program = compiled_program(plan)
        except CompileError as exc:
            compile_reason = str(exc)
        else:
            # Compiled programs partition their own driving table and
            # merge exactly, but they stay outside zone-map pruning and
            # rollup routing: ``pruning.atoms_for`` / ``router.profile_for``
            # know the hand-wired runners only and decline ``run_compiled``.
            return BoundQuery(
                workload=program.workload,
                method="run_compiled",
                kwargs=(("plan", plan),),
                plan=plan,
            )
    else:
        compile_reason = "plan compilation is disabled (REPRO_COMPILE=0)"
    raise _no_binding(plan, sql, compile_reason)


def _plan_features(node) -> frozenset[str]:
    """Structural fingerprint of a plan for nearest-workload hints:
    tables scanned, columns referenced, aggregate functions, and coarse
    shape markers (join / grouped)."""
    features: set[str] = set()

    def walk(obj) -> None:
        if isinstance(obj, ir.ColRef):
            features.add(f"table:{obj.table}")
            features.add(f"column:{obj.table}.{obj.column}")
            return
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            if isinstance(obj, ir.Scan):
                features.add(f"table:{obj.table}")
            elif isinstance(obj, ir.Join):
                features.add("shape:join")
            elif isinstance(obj, ir.Aggregate):
                features.add("shape:grouped" if obj.group_by else "shape:global")
            elif isinstance(obj, ir.AggCall):
                features.add(f"agg:{obj.func}")
            for field_ in dataclasses.fields(obj):
                walk(getattr(obj, field_.name))
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)

    walk(node)
    return frozenset(features)


@dataclass(frozen=True)
class PartitionBinding:
    """How one bound call maps onto horizontally partitioned data.

    ``table`` is the table whose rows the morsel executor partitions
    for this call (:meth:`Engine.partition_rows` uses the same rule);
    ``referenced`` is every table the call reads at all.  A
    scatter-gather coordinator scatters a call only when ``table`` is
    the sharded fact table; a call that never touches the fact table
    runs on any single shard (dimensions are fully replicated); a call
    that reads the fact table without driving over it cannot be
    scattered safely and is rejected with a clean error.
    """

    table: str | None
    referenced: frozenset


def partition_binding(bound: BoundQuery) -> PartitionBinding:
    """Derive the :class:`PartitionBinding` for a lowered query."""
    referenced: set[str] = set()
    if bound.plan is not None:
        referenced = {
            feature.split(":", 1)[1]
            for feature in _plan_features(bound.plan)
            if feature.startswith("table:")
        }
    method = bound.method
    kwargs = dict(bound.kwargs)
    if method == "run_tpch" and bound.args:
        method = TPCH_RUNNERS.get(bound.args[0], method)
    if method == "run_join":
        from repro.engines.base import JOIN_SPECS

        size = bound.args[0] if bound.args else kwargs.get("size")
        spec = JOIN_SPECS.get(size)
        table = spec.probe_table if spec is not None else None
        if spec is not None:
            referenced.update((spec.build_table, spec.probe_table))
    elif method == "run_compiled":
        from repro.compile.program import compiled_program

        table = compiled_program(kwargs["plan"]).driving
    else:
        # Every remaining morsel-capable runner partitions lineitem
        # (projection/selection/groupby micro-benchmarks and the TPC-H
        # runners all drive the fact-table scan).
        table = "lineitem"
        referenced.add("lineitem")
        if method == "run_q9":
            referenced.update(("part", "supplier", "partsupp", "orders", "nation"))
        elif method == "run_q18":
            referenced.update(("orders", "customer"))
    if table is not None:
        referenced.add(table)
    return PartitionBinding(table=table, referenced=frozenset(referenced))


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


def _no_binding(
    plan: ir.PlanNode, sql: str | None, compile_reason: str | None = None
) -> SqlError:
    """Describe the *full* supported surface: documented templates,
    parameterised micro-benchmark shapes, the per-query TPC-H runners
    behind ``run_tpch``, and the compiled fallback."""
    core = ir.strip_decorations(plan)
    known = sorted({bound.workload for bound in _template_index().values()})
    runners = ", ".join(
        f"{query_id}->{runner}" for query_id, runner in sorted(TPCH_RUNNERS.items())
    )
    lines = [
        "query is valid but does not match any profiled workload and "
        "could not be compiled.",
        f"- documented templates: {', '.join(known)}",
        "- parameterised shapes: projection degree 1-"
        f"{len(PROJECTION_COLUMNS)}, selection with free thresholds over "
        f"{', '.join(SELECTION_PREDICATE_COLUMNS)}, the three join sizes, "
        "the lineitem group-by",
        f"- TPC-H runners: {runners}",
        "- compiled fallback: single-block select / equi-join / "
        "group-by / SUM-COUNT-AVG aggregate plans over the stored "
        "schema lower to fused kernel programs (run_compiled)",
    ]
    if compile_reason:
        lines.append(f"- the compiler declined this plan: {compile_reason}")
    nearest = _nearest_workload(core)
    if nearest:
        lines.append(f"- nearest profiled workload by plan structure: {nearest}")
    lines.append(f"plan was:\n{ir.to_text(plan)}")
    return err("\n".join(lines), sql, None)
