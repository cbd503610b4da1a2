"""Logical plan -> fused vectorized kernel program.

Compilation (:func:`compiled_program`, memoized per process) analyses a
typed plan from :mod:`repro.sql.planner` into a straight-line program:

1. **Driving scan** -- the largest scanned table (by schema base
   cardinality) streams through the pipeline morsel by morsel; its
   local predicates are evaluated with the code-domain / prune-aware
   :func:`repro.engines.scan.predicate_mask` kernels and fused into one
   selection vector.  No intermediate column is ever materialised.
2. **Hash joins** -- every other table becomes a build side: local
   filters applied over the full table once per process
   (:func:`repro.engines.morsel.shared_structure`), keys hashed into a
   :class:`repro.engines.hashtable.ChainedHashTable`.  Probe order is a
   BFS over the join graph from the driving table, so a probe key may
   be a driving column or a column gathered from an earlier build side;
   two join pairs into one table fuse into a composite key.  Join pairs
   left over after the spanning traversal become residual equality
   kernels on the selection vector.
3. **Aggregation** -- SUM/AVG accumulate :class:`ExactSum` units and
   COUNT accumulates integers per group, so morsel partials merge
   *exactly* (units are exact per element, so any partitioning of the
   rows sums to identical units) and every engine/executor combination
   rounds once to the same float64.  Grouping is sort-free where the
   key domain allows: key columns fold by offset / mixed radix into one
   dense group id per row (:func:`_group_ids`), COUNT is one
   ``np.bincount`` and every SUM slot one
   :meth:`ExactSum.grouped_units` call, emitted as a string-keyed state
   dict that :func:`repro.engines.morsel.merge_states` folds across
   morsels.
4. **Finish** -- HAVING, output expressions over the exact slot totals,
   ORDER BY with a deterministic group-key tiebreak, LIMIT.

Work recording follows the engine-wide morsel contract: stream names
and order are fixed by the program (never by the data), global build
costs are recorded by the lead morsel only, random patterns carry
morsel-invariant working sets, and per-element costs are dyadic so no
:attr:`PENDING_RATES` resolution is needed.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.compile import CompileError
from repro.compile.expr import ScalarKernel, compile_scalar
from repro.core.exactsum import ExactSum
from repro.engines.hashtable import HEAD_BYTES, ChainedHashTable
from repro.engines.morsel import (
    bytes_for_rows,
    gather_lines,
    resolve_range,
    shared_structure,
)
from repro.engines.scan import (
    AGG_STATE_KEY,
    decision_details,
    exact_sum_column,
    predicate_mask,
    record_encoded_agg,
)
from repro.obs import trace
from repro.sql import plan as ir
from repro.tpch import schema as sc

# Per-element instruction costs of the fused kernels (dyadic, so morsel
# merging reproduces single-shot totals bit-for-bit without deferral).
FILTER_INSTRS = 3.0
HASH_INSTRS = 3.0
VISIT_INSTRS = 2.0
AGG_INSTRS = 4.0
GROUP_INSTRS = 6.0

#: IR comparison -> :func:`predicate_mask` op (``<>`` is mask-inverted).
_SCAN_OPS = {"<=": "le", "<": "lt", ">=": "ge", ">": "gt", "=": "eq"}

_NUMPY_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "<>": np.not_equal,
}


def _divide(left, right):
    return left / right if right else float("nan")


#: Output-expression operators of the finisher (Python scalars).
_FINISH_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}

_FINISH_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Single-column unique keys the schema guarantees; a build side keyed
#: by (or composite-keyed including) one of these provably satisfies
#: the hash table's unique-build-keys contract.
PRIMARY_KEYS = {
    "nation": "n_nationkey",
    "region": "r_regionkey",
    "supplier": "s_suppkey",
    "part": "p_partkey",
    "customer": "c_custkey",
    "orders": "o_orderkey",
}

#: Jointly-unique composite keys (TPC-H: one partsupp row per pair).
COMPOSITE_KEYS = {"partsupp": frozenset(("ps_partkey", "ps_suppkey"))}

#: Dictionary-encoded columns whose stored integer codes decode to the
#: TPC-H string values at *output* time only (HAVING/ORDER-BY group
#: state keeps the codes, matching how the planner rewrites string
#: literals into codes on the way in).
_DISPLAY_DECODE = {
    ("nation", "n_name"): tuple(sc.NATION_NAMES),
    ("region", "r_name"): tuple(sc.REGION_NAMES),
    ("lineitem", "l_returnflag"): tuple(
        flag for flag, _ in sorted(sc.RETURNFLAG_CODES.items(), key=lambda kv: kv[1])
    ),
    ("lineitem", "l_linestatus"): tuple(
        flag for flag, _ in sorted(sc.LINESTATUS_CODES.items(), key=lambda kv: kv[1])
    ),
}


@dataclass(frozen=True)
class LocalFilter:
    """One single-table predicate: ``column <op> value`` or
    ``column <op> other`` (same-table column comparison)."""

    column: str
    op: str
    value: float | None = None
    other: str | None = None


@dataclass(frozen=True)
class BuildSpec:
    """A hash-build side: filtered table, key columns (unique-first),
    and the payload columns later stages gather from matched rows."""

    table: str
    keys: tuple[str, ...]
    filters: tuple[LocalFilter, ...]
    payload: tuple[str, ...]


@dataclass(frozen=True)
class ProbeStep:
    """Probe one build side; ``sources`` name the per-key probe values
    ((table, column), resolvable from the driving table or an
    earlier-probed build side)."""

    build: BuildSpec
    sources: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Residual:
    """A join pair not used by the spanning probe order; evaluated as
    an equality kernel once both sides are available."""

    left: tuple[str, str]
    right: tuple[str, str]


@dataclass(frozen=True)
class AggSlot:
    """One accumulated quantity: an exact SUM (``ExactSum``) or a COUNT
    (int).  AVG is a sum slot plus the shared count slot."""

    name: str
    func: str  # "sum" | "count"
    kernel: ScalarKernel | None = None
    column: str | None = None  # bare driving-table column, when it is one


@dataclass(frozen=True)
class KernelProgram:
    """The compiled, immutable form of one logical plan."""

    plan: ir.PlanNode
    driving: str
    filters: tuple[LocalFilter, ...]
    steps: tuple[ProbeStep, ...]
    residuals: tuple[Residual, ...]
    group_refs: tuple[tuple[str, str], ...]
    slots: tuple[AggSlot, ...]
    outputs: tuple[ir.NamedExpr, ...]
    having: ir.Compare | None
    order: tuple[tuple[str, bool], ...]
    limit: int | None
    workload: str = field(compare=False, default="compiled")

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Plain-data summary for details/explain/tour surfaces."""
        return {
            "driving": self.driving,
            "filters": len(self.filters),
            "joins": [
                {
                    "table": step.build.table,
                    "keys": list(step.build.keys),
                    "build_filters": len(step.build.filters),
                }
                for step in self.steps
            ],
            "residuals": len(self.residuals),
            "group_by": [f"{t}.{c}" for t, c in self.group_refs],
            "aggregates": [
                {"slot": s.name, "func": s.func} for s in self.slots
            ],
            "order_by": [
                f"{name} {'desc' if desc else 'asc'}" for name, desc in self.order
            ],
            "limit": self.limit,
        }

    # ------------------------------------------------------------------
    # Morsel execution
    # ------------------------------------------------------------------
    def execute(self, engine, db, row_range):
        """Run the kernel sequence over one morsel; returns the exactly
        mergeable ``(state, tuples, work)`` triple."""
        driving = db.table(self.driving)
        lo, hi = resolve_range(row_range, driving.n_rows)
        m = hi - lo
        lead = lo == 0
        work = engine._new_work()

        # -- driving-table filters: full-vector masks, fused select --
        mask = None
        for i, flt in enumerate(self.filters):
            work.record_sequential_read(bytes_for_rows(driving, [flt.column], lo, hi))
            if flt.other is None:
                part = _const_mask(driving, flt, lo, hi)
            else:
                work.record_sequential_read(
                    bytes_for_rows(driving, [flt.other], lo, hi)
                )
                part = _NUMPY_OPS[flt.op](
                    driving[flt.column][lo:hi], driving[flt.other][lo:hi]
                )
            work.record_work(instructions=m * FILTER_INSTRS, alu=m, loads=m)
            taken = float(part.mean()) if m else 0.0
            work.record_branch_stream(
                f"filter {self.driving}.{flt.column}#{i}", m, taken
            )
            mask = part if mask is None else mask & part
        sel = np.flatnonzero(mask) if mask is not None else np.arange(m)

        # -- probes (selection vector threaded through) --
        builds: dict[str, dict] = {}
        matches: dict[str, np.ndarray] = {}
        # Per selection vector: gathered values by (table, column), the
        # sites already recorded, and the driving-table line counts.
        fetched: dict[tuple, np.ndarray] = {}
        recorded: set[str] = set()
        sel_lines = None

        def fetch(table, column, site):
            """Column values over the current selection: gathered once
            per column, recorded once per (program site, column)."""
            nonlocal sel_lines
            name = f"gather {table}.{column}@{site}"
            if name not in recorded:
                recorded.add(name)
                if table == self.driving:
                    if sel_lines is None:
                        sel_lines = gather_lines(sel + lo, lo, hi)
                    work.record_gather(
                        name, bytes_for_rows(driving, [column], lo, hi), *sel_lines
                    )
                else:
                    work.record_random(
                        name, len(sel), builds[table]["payload_bytes"]
                    )
                    work.record_work(instructions=len(sel) * 1.0, loads=len(sel))
            values = fetched.get((table, column))
            if values is None:
                if table == self.driving:
                    values = driving[column][lo:hi][sel]
                else:
                    values = builds[table]["values"][column][matches[table]]
                fetched[(table, column)] = values
            return values

        def selection_changed():
            nonlocal sel_lines
            fetched.clear()
            recorded.clear()
            sel_lines = None

        for idx, step in enumerate(self.steps):
            spec = step.build
            build = shared_structure(
                db, ("compile", step), lambda s=step: _build_side(db, s)
            )
            builds[spec.table] = build
            _record_build(work, build, spec, lead)

            site = f"probe{idx}"
            sources = [
                np.asarray(fetch(t, c, f"{site}k{j}"))
                for j, (t, c) in enumerate(step.sources)
            ]
            n_probe = len(sel)
            probe_keys, valid = _probe_keys(sources, build)
            ws = build["working_set"]
            work.record_work(
                instructions=n_probe * HASH_INSTRS, hash_ops=n_probe,
                alu=n_probe, loads=n_probe,
            )
            work.record_random(f"probe {spec.table} heads", n_probe, ws)
            table_struct = build["table"]
            if table_struct is None:
                found = np.zeros(n_probe, dtype=bool)
                match = np.empty(0, dtype=np.int64)
                work.record_random(f"probe {spec.table} chain", 0, ws, dependent=True)
                work.record_branch_stream(f"probe {spec.table} hit", n_probe, 0.0)
            else:
                result = table_struct.probe(probe_keys)
                found = result.found if valid is None else result.found & valid
                work.record_work(
                    instructions=result.comparisons * VISIT_INSTRS,
                    alu=result.comparisons, loads=result.comparisons,
                )
                work.record_random(
                    f"probe {spec.table} chain", result.extra_walk, ws,
                    dependent=True,
                )
                work.record_branch_outcomes(f"probe {spec.table} hit", found)
                match = result.match_index[found]
            sel = sel[found]
            for name in matches:
                matches[name] = matches[name][found]
            matches[spec.table] = match
            selection_changed()

        # -- residual equality pairs --
        for idx, residual in enumerate(self.residuals):
            site = f"residual{idx}"
            left = fetch(*residual.left, f"{site}l")
            right = fetch(*residual.right, f"{site}r")
            keep = np.asarray(left) == np.asarray(right)
            n_check = len(sel)
            work.record_work(instructions=n_check * 1.0, alu=n_check)
            work.record_branch_outcomes(
                f"residual {residual.left[1]}={residual.right[1]}", keep
            )
            sel = sel[keep]
            for name in matches:
                matches[name] = matches[name][keep]
            selection_changed()

        # -- aggregation --
        n_final = len(sel)
        key_arrays = [
            np.asarray(fetch(t, c, f"key{j}"))
            for j, (t, c) in enumerate(self.group_refs)
        ]
        slot_values: dict[str, np.ndarray] = {}
        decisions = []
        for si, slot in enumerate(self.slots):
            if slot.func == "count":
                decisions.append((slot.name, None, "counted", "row-count"))
                continue
            if (
                slot.column is not None
                and not self.steps
                and not self.residuals
                and not self.group_refs
            ):
                # Bare driving-column global sum: the code-domain
                # morph kernels apply directly over the filter mask.
                total, mode, why = exact_sum_column(
                    driving, slot.column, lo, hi, selected=mask
                )
                slot_values[slot.name] = total
                decisions.append((slot.name, slot.column, mode, why))
                work.record_work(instructions=m * AGG_INSTRS, alu=m, loads=m)
                continue
            kernel = slot.kernel
            values = kernel.evaluate(
                lambda t, c, s=si: fetch(t, c, f"agg{s}"), n_final
            )
            values = np.asarray(values)
            if values.dtype != np.float64:
                values = values.astype(np.float64)
            slot_values[slot.name] = values
            cost = n_final * AGG_INSTRS * max(1, kernel.nodes)
            work.record_work(instructions=cost, alu=cost / 2.0, loads=n_final)
            decisions.append((slot.name, slot.column, "decoded", _decode_why(self)))

        work.record_work(
            instructions=n_final * GROUP_INSTRS, hash_ops=n_final,
            stores=n_final, alu=n_final,
        )
        groups: dict[str, dict] = {}
        if self.group_refs:
            if n_final:
                ids, n_groups = _group_ids(key_arrays)
                # Any row of a group carries its key.
                key_row = np.empty(n_groups, dtype=np.int64)
                key_row[ids] = np.arange(n_final)
                key_columns = [k[key_row].tolist() for k in key_arrays]
                counts = np.bincount(ids, minlength=n_groups).tolist()
                slot_units = {
                    name: ExactSum.grouped_units(values, ids, n_groups)
                    for name, values in slot_values.items()
                }
                # Ascending ids are ascending key tuples, the order the
                # groups enter the state dict.
                for g in range(n_groups):
                    key = tuple(_pyval(column[g]) for column in key_columns)
                    group = {"const_key": key}
                    for slot in self.slots:
                        if slot.func == "count":
                            group[slot.name] = counts[g]
                        else:
                            group[slot.name] = ExactSum(slot_units[slot.name][g])
                    groups[repr(key)] = group
        else:
            group = {"const_key": ()}
            for slot in self.slots:
                if slot.func == "count":
                    group[slot.name] = n_final
                else:
                    accumulated = slot_values[slot.name]
                    if not isinstance(accumulated, ExactSum):
                        accumulated = ExactSum.of_array(accumulated)
                    group[slot.name] = accumulated
            groups["()"] = group

        state = {
            "groups": groups,
            "candidates": n_final,
            AGG_STATE_KEY: tuple(decisions),
        }
        return state, m, work

    # ------------------------------------------------------------------
    # Finisher (single-shot and merge paths share it)
    # ------------------------------------------------------------------
    def finish(self, engine, db, merged):
        from repro.engines.base import QueryResult

        work = engine._finalize_profile(merged.work)
        state = merged.state
        decision = state.get(AGG_STATE_KEY) or ()
        record_encoded_agg(decision)
        names = [out.name for out in self.outputs]

        having = None if self.having is None else self._predicate(self.having)
        cells = [self._display_cell(out.expr) for out in self.outputs]
        entries = []
        for group in state.get("groups", {}).values():
            key = group["const_key"]
            key_values = dict(zip(self.group_refs, key))
            if having is not None and not having(group, key_values):
                continue
            row = [cell(group, key_values) for cell in cells]
            entries.append((key, row, group))
        entries.sort(key=lambda entry: entry[0])

        exact_totals: dict[str, object] = {}
        for slot in self.slots:
            if slot.func == "count":
                exact_totals[slot.name] = sum(
                    group[slot.name] for _, _, group in entries
                )
            else:
                exact_totals[slot.name] = sum(
                    group[slot.name].units for _, _, group in entries
                )

        for name, descending in reversed(self.order):
            index = names.index(name)
            entries.sort(key=lambda entry: entry[1][index], reverse=descending)
        included = len(entries)
        if self.limit is not None:
            entries = entries[: self.limit]

        value = {"columns": names, "rows": [row for _, row, _ in entries]}
        details = {
            "compiled": self.describe(),
            "groups": included,
            "candidates": state.get("candidates", 0),
            "exact_totals": exact_totals,
        }
        encoded = decision_details(decision)
        if encoded is not None:
            details["encoded_agg"] = encoded
        if merged.operators is not None:
            details["operators"] = merged.operators
        return QueryResult(self.workload, value, merged.tuples, work, details)

    # Output expressions become closures over ``(group, key_values)``
    # once per finish call, so the per-group loop neither walks the
    # expression tree nor re-derives slot names.
    def _display_cell(self, expr):
        """An output cell: :meth:`_finish_cell`, with dictionary codes
        decoded to their strings for bare name-column outputs."""
        cell = self._finish_cell(expr)
        if isinstance(expr, ir.ColumnExpr):
            names = _DISPLAY_DECODE.get((expr.ref.table, expr.ref.column))
            if names is not None:

                def decoded(group, key_values):
                    value = cell(group, key_values)
                    if isinstance(value, int) and 0 <= value < len(names):
                        return names[value]
                    return value

                return decoded
        return cell

    def _finish_cell(self, expr):
        if isinstance(expr, ir.ConstExpr):
            value = expr.value
            return lambda group, key_values: value
        if isinstance(expr, ir.ColumnExpr):
            ref = (expr.ref.table, expr.ref.column)
            return lambda group, key_values: key_values[ref]
        if isinstance(expr, ir.Arith):
            left = self._finish_cell(expr.left)
            right = self._finish_cell(expr.right)
            op = _FINISH_ARITH[expr.op]
            return lambda group, key_values: op(
                left(group, key_values), right(group, key_values)
            )
        if isinstance(expr, ir.AggCall):
            if expr.func == "count":
                name = self._slot_of(expr).name
                return lambda group, key_values: group[name]
            if expr.func == "avg":
                sum_name = self._slot_of(expr, "sum").name
                count_name = self._slot_of(expr, "count").name

                def average(group, key_values):
                    count = group[count_name]
                    return group[sum_name].total() / count if count else float("nan")

                return average
            name = self._slot_of(expr).name
            return lambda group, key_values: group[name].total()
        raise CompileError(f"unsupported output expression {type(expr).__name__}")

    def _slot_of(self, agg: ir.AggCall, role: str | None = None) -> AggSlot:
        name = _slot_key(agg, role)
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(name)

    def _predicate(self, compare: ir.Compare):
        left = self._finish_cell(compare.left)
        right = self._finish_cell(compare.right)
        op = _FINISH_COMPARE[compare.op]
        return lambda group, key_values: op(
            left(group, key_values), right(group, key_values)
        )


# ----------------------------------------------------------------------
# Runtime kernels
# ----------------------------------------------------------------------


def _const_mask(table, flt: LocalFilter, lo: int, hi: int) -> np.ndarray:
    if flt.op == "<>":
        return ~predicate_mask(table, flt.column, "eq", flt.value, lo, hi)
    return predicate_mask(table, flt.column, _SCAN_OPS[flt.op], flt.value, lo, hi)


def _build_side(db, step: ProbeStep) -> dict:
    """Build one filtered hash side over the full table (shared across
    morsels/executions via :func:`shared_structure`)."""
    spec = step.build
    table = db.table(spec.table)
    n = table.n_rows
    mask = None
    for flt in spec.filters:
        if flt.other is None:
            part = _const_mask(table, flt, 0, n)
        else:
            part = _NUMPY_OPS[flt.op](table[flt.column][:], table[flt.other][:])
        mask = part if mask is None else mask & part
    rows = np.flatnonzero(mask) if mask is not None else np.arange(n)
    columns = tuple(dict.fromkeys(spec.keys + spec.payload))
    values = {c: np.ascontiguousarray(np.asarray(table[c])[rows]) for c in columns}
    payload_bytes = float(max(len(rows), 1) * 8)
    if not len(rows):
        return {
            "table": None, "values": values, "n_rows": n, "n_selected": 0,
            "working_set": float(HEAD_BYTES), "payload_bytes": payload_bytes,
            "min2": 0, "span": 0,
        }
    if len(spec.keys) == 1:
        keys = values[spec.keys[0]].astype(np.int64, copy=False)
        min2, span = 0, 0
    else:
        k1 = values[spec.keys[0]].astype(np.int64, copy=False)
        k2 = values[spec.keys[1]].astype(np.int64, copy=False)
        min2 = int(k2.min())
        span = int(k2.max()) - min2 + 1
        keys = k1 * span + (k2 - min2)
    hashtable = ChainedHashTable(keys)
    return {
        "table": hashtable, "values": values, "n_rows": n,
        "n_selected": int(len(rows)),
        "working_set": float(hashtable.working_set_bytes),
        "payload_bytes": payload_bytes, "min2": min2, "span": span,
    }


def _probe_keys(sources, build):
    """(int64 probe keys, validity mask or None) for one probe step."""
    first = np.asarray(sources[0]).astype(np.int64, copy=False)
    if len(sources) == 1:
        return first, None
    second = np.asarray(sources[1]).astype(np.int64, copy=False)
    span, min2 = build["span"], build["min2"]
    if not span:
        return first, np.zeros(len(first), dtype=bool)
    valid = (second >= min2) & (second < min2 + span)
    return first * span + np.where(valid, second - min2, 0), valid


def _record_build(work, build, spec: BuildSpec, lead: bool) -> None:
    """Global build cost, recorded in full by the lead morsel and as
    zero-count placeholders elsewhere (the engine-wide convention)."""
    n_rows = build["n_rows"] if lead else 0
    n_keys = build["n_selected"] if lead else 0
    columns = len(dict.fromkeys(spec.keys + spec.payload)) + len(spec.filters)
    work.record_sequential_read(float(n_rows * 8 * max(1, columns)))
    scan_cost = n_rows * (FILTER_INSTRS if spec.filters else 1.0)
    work.record_work(instructions=scan_cost, alu=n_rows, loads=n_rows)
    work.record_work(
        instructions=n_keys * HASH_INSTRS, hash_ops=n_keys, stores=n_keys
    )
    work.record_random(
        f"build {spec.table} scatter", n_keys, build["working_set"]
    )


#: Mixed-radix group ids stay inside int64 below this domain product.
_MAX_DOMAIN = 1 << 62

#: Widest single-key value range folded by offset; wider keys are
#: factorised, so a compacted prefix times any radix fits _MAX_DOMAIN.
_MAX_RADIX = 1 << 31

#: A code domain is remapped through a dense table while it has at most
#: this many entries per row; sparser domains are factorised by sorting.
_DENSE_DOMAIN_PER_ROW = 4


def _key_codes(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Order-preserving codes in ``[0, radix)`` of one key column."""
    if keys.dtype.kind == "i":
        low = int(keys.min())
        radix = int(keys.max()) - low + 1
        if radix <= _MAX_RADIX:
            return keys.astype(np.int64, copy=False) - low, radix
    uniques, codes = np.unique(keys, return_inverse=True)
    return codes, len(uniques)


def _compact(codes: np.ndarray, domain: int) -> tuple[np.ndarray, int]:
    """Order-preserving dense ranks of the occupied codes of
    ``[0, domain)``: ``(ids, n_occupied)``."""
    if domain <= _DENSE_DOMAIN_PER_ROW * len(codes):
        occupied = np.flatnonzero(np.bincount(codes, minlength=domain))
        rank = np.empty(domain, dtype=np.int64)
        rank[occupied] = np.arange(len(occupied))
        return rank[codes], len(occupied)
    uniques, ids = np.unique(codes, return_inverse=True)
    return ids, len(uniques)


def _group_ids(key_arrays) -> tuple[np.ndarray, int]:
    """Dense group ids of the rows' key tuples, ascending in tuple
    order: ``(ids, n_groups)``.  Key columns fold left to right into one
    mixed-radix code, compacted early only if it would leave int64."""
    codes, domain = _key_codes(key_arrays[0])
    for keys in key_arrays[1:]:
        key_codes, radix = _key_codes(keys)
        if domain * radix > _MAX_DOMAIN:
            codes, domain = _compact(codes, domain)
        codes = codes * radix + key_codes
        domain *= radix
    return _compact(codes, domain)


def _pyval(value):
    """A group-key cell (already a Python scalar) as it enters
    ``const_key``: integer-valued floats become ints."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _decode_why(program: KernelProgram) -> str:
    if program.steps or program.residuals:
        return "post-join"
    if program.group_refs:
        return "grouped-expression"
    return "derived-expression"


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _slot_key(agg: ir.AggCall, role: str | None = None) -> str:
    func = agg.func
    if role is not None:
        func = role
    if func == "count" or agg.arg is None:
        return "count:*" if agg.arg is None else f"count:{agg.arg}"
    return f"{func}:{agg.arg}"


class _Compiler:
    def __init__(self, plan: ir.PlanNode):
        self.plan = plan
        self.tables: list[str] = []
        self.filters: dict[str, list[LocalFilter]] = {}
        self.pairs: list[tuple[ir.ColRef, ir.ColRef]] = []

    def compile(self) -> KernelProgram:
        node = self.plan
        limit = None
        order: tuple[tuple[str, bool], ...] = ()
        if isinstance(node, ir.Limit):
            limit = node.count
            node = node.child
        if isinstance(node, ir.OrderBy):
            order = node.keys
            node = node.child
        if isinstance(node, ir.Limit):
            limit = node.count if limit is None else limit
            node = node.child
        if isinstance(node, ir.Project):
            raise CompileError(
                "plain projections do not compile; only aggregate queries "
                "stream through the fused pipeline"
            )
        if not isinstance(node, ir.Aggregate):
            raise CompileError(
                f"unsupported plan root {type(node).__name__}"
            )

        self._collect(node.child)
        driving = max(self.tables, key=lambda t: sc.BASE_ROWS[t])
        steps, residuals = self._probe_order(driving)
        group_refs = tuple(
            (ref.table, ref.column) for ref in node.group_by
        )
        for table, _ in group_refs:
            self._check_available(table, driving, steps)
        slots = self._collect_slots(node, driving)
        self._validate_outputs(node, group_refs)
        for name, _ in order:
            if name not in {out.name for out in node.outputs}:
                raise CompileError(f"ORDER BY key {name!r} is not an output")

        label = f"compiled-{driving}"
        if steps:
            label += f"-{len(steps)}join"
        label += f"-g{len(group_refs)}" if group_refs else "-global"
        return KernelProgram(
            plan=self.plan,
            driving=driving,
            filters=tuple(self.filters.get(driving, ())),
            steps=steps,
            residuals=residuals,
            group_refs=group_refs,
            slots=slots,
            outputs=node.outputs,
            having=node.having,
            order=order,
            limit=limit,
            workload=label,
        )

    # -- plan walk -----------------------------------------------------
    def _collect(self, node: ir.PlanNode) -> None:
        if isinstance(node, ir.Join):
            self._collect(node.left)
            self._collect(node.right)
            self.pairs.extend(node.pairs)
            return
        if isinstance(node, ir.Filter):
            child = node.child
            if not isinstance(child, ir.Scan):
                raise CompileError("filters over derived tables do not compile")
            self._add_scan(child.table)
            for predicate in node.predicates:
                self.filters[child.table].append(
                    self._compile_filter(child.table, predicate)
                )
            return
        if isinstance(node, ir.Scan):
            self._add_scan(node.table)
            return
        if isinstance(node, ir.SubqueryScan):
            raise CompileError(
                f"derived table {node.alias!r} does not compile (no "
                "subquery pipeline)"
            )
        raise CompileError(f"unsupported plan node {type(node).__name__}")

    def _add_scan(self, table: str) -> None:
        if table not in sc.SCHEMAS:
            raise CompileError(f"unknown table {table!r}")
        if table in self.tables:
            raise CompileError(f"table {table!r} scanned twice (self joins do not compile)")
        self.tables.append(table)
        self.filters.setdefault(table, [])

    def _compile_filter(self, table: str, predicate) -> LocalFilter:
        if isinstance(predicate, ir.InSubquery):
            raise CompileError("IN (subquery) predicates do not compile")
        if not isinstance(predicate, ir.Compare):
            raise CompileError(
                f"unsupported predicate {type(predicate).__name__}"
            )
        if not isinstance(predicate.left, ir.ColumnExpr):
            raise CompileError("filters need a plain column on the left")
        column = predicate.left.ref.column
        if isinstance(predicate.right, ir.ConstExpr):
            if predicate.op != "<>" and predicate.op not in _SCAN_OPS:
                raise CompileError(f"unsupported filter operator {predicate.op!r}")
            return LocalFilter(
                column=column, op=predicate.op, value=predicate.right.value
            )
        if isinstance(predicate.right, ir.ColumnExpr):
            if predicate.op not in _NUMPY_OPS:
                raise CompileError(f"unsupported filter operator {predicate.op!r}")
            return LocalFilter(
                column=column, op=predicate.op,
                other=predicate.right.ref.column,
            )
        raise CompileError("filter comparands must be columns or constants")

    # -- join graph ----------------------------------------------------
    def _probe_order(self, driving: str):
        reachable = {driving}
        payload_needs: dict[str, set] = {t: set() for t in self.tables}
        pairs_left = list(self.pairs)
        steps_raw = []
        while len(reachable) < len(self.tables):
            progress = False
            for table in self.tables:
                if table in reachable:
                    continue
                connecting = [
                    pair for pair in pairs_left
                    if (pair[0].table == table and pair[1].table in reachable)
                    or (pair[1].table == table and pair[0].table in reachable)
                ]
                if not connecting:
                    continue
                if len(connecting) > 2:
                    raise CompileError(
                        f"more than two join keys into {table!r}"
                    )
                keys, sources = [], []
                for pair in connecting:
                    mine, other = (
                        (pair[0], pair[1]) if pair[0].table == table
                        else (pair[1], pair[0])
                    )
                    keys.append(mine.column)
                    sources.append((other.table, other.column))
                    pairs_left.remove(pair)
                keys, sources = self._orient_keys(table, keys, sources)
                steps_raw.append((table, tuple(keys), tuple(sources)))
                reachable.add(table)
                progress = True
                break
            if not progress:
                missing = sorted(set(self.tables) - reachable)
                raise CompileError(
                    f"tables {missing} are not connected to {driving!r} by "
                    "equi-join pairs"
                )

        residuals = []
        for pair in pairs_left:
            residuals.append(Residual(
                left=(pair[0].table, pair[0].column),
                right=(pair[1].table, pair[1].column),
            ))

        # Payload: every non-driving column any later stage touches.
        for table, _, sources in steps_raw:
            for src_table, src_column in sources:
                if src_table != driving:
                    payload_needs[src_table].add(src_column)
        for residual in residuals:
            for ref_table, ref_column in (residual.left, residual.right):
                if ref_table != driving:
                    payload_needs[ref_table].add(ref_column)
        node = self.plan
        while isinstance(node, (ir.Limit, ir.OrderBy)):
            node = node.child
        for ref_table, ref_column in _aggregate_refs(node):
            if ref_table != driving:
                payload_needs[ref_table].add(ref_column)

        steps = []
        for table, keys, sources in steps_raw:
            self._check_unique(table, keys)
            for key in keys:
                if sc.SCHEMAS[table].dtype_of(key) != np.dtype(np.int64):
                    raise CompileError(
                        f"join key {table}.{key} is not an integer column"
                    )
            steps.append(ProbeStep(
                build=BuildSpec(
                    table=table,
                    keys=keys,
                    filters=tuple(self.filters.get(table, ())),
                    payload=tuple(sorted(payload_needs[table])),
                ),
                sources=sources,
            ))
        # Probe sources must come from the driving table or an
        # *earlier* build side (BFS order guarantees reachability, this
        # asserts it).
        available = {driving}
        for step in steps:
            for src_table, _ in step.sources:
                if src_table not in available:
                    raise CompileError(
                        f"probe source table {src_table!r} not yet joined"
                    )
            available.add(step.build.table)
        for residual in residuals:
            for ref_table, _ in (residual.left, residual.right):
                if ref_table not in available:
                    raise CompileError(
                        f"residual join table {ref_table!r} not joined"
                    )
        return tuple(steps), tuple(residuals)

    def _orient_keys(self, table, keys, sources):
        """Put the provably-unique key first (composite builds multiply
        the unique key so the combined key stays unique)."""
        primary = PRIMARY_KEYS.get(table)
        if primary in keys and keys[0] != primary:
            i = keys.index(primary)
            keys[0], keys[i] = keys[i], keys[0]
            sources[0], sources[i] = sources[i], sources[0]
        return keys, sources

    def _check_unique(self, table, keys) -> None:
        primary = PRIMARY_KEYS.get(table)
        if primary in keys:
            return
        if set(keys) == COMPOSITE_KEYS.get(table, frozenset()):
            return
        raise CompileError(
            f"cannot prove build keys {keys!r} unique on {table!r} "
            "(hash build sides need a schema-unique key)"
        )

    def _check_available(self, table, driving, steps) -> None:
        if table == driving:
            return
        if any(step.build.table == table for step in steps):
            return
        raise CompileError(f"column source table {table!r} is not in the plan")

    # -- aggregation ---------------------------------------------------
    def _collect_slots(self, node: ir.Aggregate, driving: str):
        slots: dict[str, AggSlot] = {}

        def register(agg: ir.AggCall) -> None:
            if agg.func in ("sum", "avg"):
                if agg.arg is None:
                    raise CompileError(f"{agg.func.upper()}() needs an argument")
                key = _slot_key(agg, "sum")
                if key not in slots:
                    kernel = compile_scalar(agg.arg)
                    for table, _ in kernel.refs:
                        if table not in self.tables:
                            raise CompileError(
                                f"aggregate references unjoined table {table!r}"
                            )
                    column = None
                    if (
                        isinstance(agg.arg, ir.ColumnExpr)
                        and agg.arg.ref.table == driving
                    ):
                        column = agg.arg.ref.column
                    slots[key] = AggSlot(
                        name=key, func="sum", kernel=kernel, column=column
                    )
                if agg.func == "avg":
                    count_key = _slot_key(agg, "count")
                    slots.setdefault(
                        count_key, AggSlot(name=count_key, func="count")
                    )
            elif agg.func == "count":
                key = _slot_key(agg)
                slots.setdefault(key, AggSlot(name=key, func="count"))
            else:
                raise CompileError(
                    f"aggregate {agg.func.upper()}() has no compiled kernel"
                )

        def walk(expr) -> None:
            if isinstance(expr, ir.AggCall):
                register(expr)
            elif isinstance(expr, ir.Arith):
                walk(expr.left)
                walk(expr.right)
            elif isinstance(expr, ir.YearOf):
                raise CompileError("EXTRACT(YEAR ...) has no compiled kernel")

        for out in node.outputs:
            walk(out.expr)
        if node.having is not None:
            walk(node.having.left)
            walk(node.having.right)
        if not slots:
            raise CompileError("aggregate query without compilable aggregates")
        # Kernel column availability check against the *real* steps is
        # done in _validate_outputs via _aggregate_refs/payload wiring.
        return tuple(slots.values())

    def _validate_outputs(self, node: ir.Aggregate, group_refs) -> None:
        group_set = set(group_refs)
        for out in node.outputs:
            self._validate_output_expr(out.expr, group_set)
        if node.having is not None:
            self._validate_output_expr(node.having.left, group_set)
            self._validate_output_expr(node.having.right, group_set)

    def _validate_output_expr(self, expr, group_set) -> None:
        if isinstance(expr, ir.ColumnExpr):
            if (expr.ref.table, expr.ref.column) not in group_set:
                raise CompileError(
                    f"output column {expr.ref} is not a GROUP BY key"
                )
            return
        if isinstance(expr, ir.Arith):
            self._validate_output_expr(expr.left, group_set)
            self._validate_output_expr(expr.right, group_set)
            return
        if isinstance(expr, (ir.ConstExpr, ir.AggCall)):
            return
        raise CompileError(
            f"unsupported output expression {type(expr).__name__}"
        )


def _aggregate_refs(node: ir.Aggregate):
    """Every (table, column) the aggregate layer reads: group keys plus
    aggregate-argument leaves (for build payload planning)."""
    refs = [(ref.table, ref.column) for ref in node.group_by]

    def walk(expr) -> None:
        if isinstance(expr, ir.ColumnExpr):
            refs.append((expr.ref.table, expr.ref.column))
        elif isinstance(expr, ir.Arith):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, ir.AggCall) and expr.arg is not None:
            walk(expr.arg)

    for out in node.outputs:
        walk(out.expr)
    if node.having is not None:
        walk(node.having.left)
        walk(node.having.right)
    return refs


# ----------------------------------------------------------------------
# Compiled-program cache (per process)
# ----------------------------------------------------------------------
_CACHE: dict[ir.PlanNode, KernelProgram] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_CAP = 128
_CACHE_STATS = {"hits": 0, "misses": 0}


def compiled_program(plan: ir.PlanNode) -> KernelProgram:
    """The compiled program for ``plan``, memoized per process.

    Compilation is pure plan analysis (no data access), so one cache
    entry serves every database, engine and executor.  A fresh compile
    emits a ``compile`` span.
    """
    with _CACHE_LOCK:
        program = _CACHE.get(plan)
        if program is not None:
            _CACHE_STATS["hits"] += 1
            return program
    with trace.span("compile"):
        program = _Compiler(plan).compile()
        trace.annotate(
            workload=program.workload,
            joins=len(program.steps),
            groups=len(program.group_refs),
        )
    with _CACHE_LOCK:
        existing = _CACHE.get(plan)
        if existing is not None:
            _CACHE_STATS["hits"] += 1
            return existing
        _CACHE_STATS["misses"] += 1
        _CACHE[plan] = program
        while len(_CACHE) > _CACHE_CAP:
            _CACHE.pop(next(iter(_CACHE)))
    return program


def execute_compiled(engine, db, plan: ir.PlanNode, row_range=None):
    """Entry point behind :meth:`Engine.run_compiled`.

    ``row_range=None`` runs the full driving table and finishes through
    the same merge finisher the parallel executor uses; a set range
    returns an exactly mergeable partial.
    """
    from repro.engines.base import MergedPartials

    program = compiled_program(plan)
    if row_range is not None:
        state, tuples, work = program.execute(engine, db, row_range)
        lo, hi = resolve_range(row_range, db.table(program.driving).n_rows)
        return engine._partial_result(
            program.workload, state, tuples, work, (lo, hi)
        )
    state, tuples, work = program.execute(engine, db, None)
    merged = MergedPartials(state=state, work=work, tuples=tuples)
    return program.finish(engine, db, merged)


def finish_compiled(engine, db, merged, plan: ir.PlanNode):
    """Merge finisher behind :meth:`Engine._finish_compiled`."""
    return compiled_program(plan).finish(engine, db, merged)


def compile_cache_stats() -> dict:
    with _CACHE_LOCK:
        return {"entries": len(_CACHE), **_CACHE_STATS}


def clear_compile_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0
