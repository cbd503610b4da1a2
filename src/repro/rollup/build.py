"""Building rollup tables from a :class:`RollupSpec`.

Exactness contract
------------------
A rollup answers a query bit-identically only if its partials were
computed with the *same per-row arithmetic* the engines use.  The
expression registry below therefore mirrors the engines' canonical
evaluations element for element:

* ``proj:k`` is the degree-``k`` projection sum:
  ``0.0 + col_1 + ... + col_k`` per row, over
  :data:`~repro.tpch.schema.PROJECTION_COLUMNS` in order -- exactly the
  fused loop every engine runs for ``run_projection`` (and, at k = 1,
  the ``l_extendedprice`` sum of ``run_groupby`` and Q1's base price).
* ``disc_price`` is ``l_extendedprice * (1.0 - l_discount)`` and
  ``charge`` is ``disc_price * (1.0 + l_tax)``, Q1's derived measures.
* ``col:<name>`` is the raw column.

All are per-row (elementwise) computations, so a partial over any row
subset composes: ``ExactSum.grouped_units`` gives each (group,
partition) cell exactly ``ExactSum.of_array`` over its rows, and adding
unit counts across cells reproduces the engines' single-shot sums to
the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exactsum import ExactSum, encode_units
from repro.engines.morsel import group_ids
from repro.rollup.table import AggregateSpec, RollupTable
from repro.tpch.schema import PROJECTION_COLUMNS


def _projection_prefix(table, degree: int, lo: int, hi: int) -> np.ndarray:
    total = np.zeros(hi - lo)
    for column in PROJECTION_COLUMNS[:degree]:
        total = total + table[column][lo:hi]
    return total


def evaluate_expression(table, expr: str, lo: int, hi: int) -> np.ndarray:
    """Per-row values of one registered expression over ``[lo, hi)``."""
    if expr.startswith("proj:"):
        degree = int(expr.split(":", 1)[1])
        if not 1 <= degree <= len(PROJECTION_COLUMNS):
            raise ValueError(f"unknown projection degree in {expr!r}")
        return _projection_prefix(table, degree, lo, hi)
    if expr == "disc_price":
        price = table["l_extendedprice"][lo:hi]
        discount = table["l_discount"][lo:hi]
        return price * (1.0 - discount)
    if expr == "charge":
        price = table["l_extendedprice"][lo:hi]
        discount = table["l_discount"][lo:hi]
        tax = table["l_tax"][lo:hi]
        disc_price = price * (1.0 - discount)
        return disc_price * (1.0 + tax)
    if expr.startswith("col:"):
        return np.asarray(table[expr.split(":", 1)[1]][lo:hi])
    raise ValueError(f"unknown rollup expression {expr!r}")


#: Aggregates of the default lineitem rollup: everything the router can
#: substitute for the projection / group-by micro-benchmarks and Q1,
#: plus count (group presence / regrouping) and min/max partials.
DEFAULT_AGGREGATES = (
    AggregateSpec("sum_qty", "sum", "col:l_quantity"),
    AggregateSpec("sum_base_price", "sum", "proj:1"),
    AggregateSpec("sum_disc_price", "sum", "disc_price"),
    AggregateSpec("sum_charge", "sum", "charge"),
    AggregateSpec("proj2", "sum", "proj:2"),
    AggregateSpec("proj3", "sum", "proj:3"),
    AggregateSpec("proj4", "sum", "proj:4"),
    AggregateSpec("row_count", "count"),
    AggregateSpec("min_base_price", "min", "proj:1"),
    AggregateSpec("max_base_price", "max", "proj:1"),
)


@dataclass(frozen=True)
class RollupSpec:
    """Declarative description of one rollup to materialize."""

    name: str
    table: str = "lineitem"
    keys: tuple[str, ...] = ("l_returnflag", "l_linestatus")
    aggregates: tuple[AggregateSpec, ...] = field(default=DEFAULT_AGGREGATES)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        names = [spec.name for spec in self.aggregates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate aggregate names in rollup spec")


def default_lineitem_spec(name: str = "lineitem_by_flag_status") -> RollupSpec:
    return RollupSpec(name=name)


def build_rollup(db, spec: RollupSpec) -> RollupTable:
    """Materialize one rollup over the (possibly partitioned) base table.

    With a :class:`~repro.rollup.partition.Partitioning` attached the
    rollup holds one row per (partition, group) present; without one the
    whole table counts as a single partition (rollups still answer
    predicate-free queries).  Empty partitions contribute no rows.
    """
    table = db.table(spec.table)
    partitioning = getattr(table, "partitioning", None)
    if partitioning is not None:
        bounds = [int(b) for b in partitioning.bounds]
        partition_column = partitioning.column
        n_partitions = partitioning.n_partitions
    else:
        bounds = [0, table.n_rows]
        partition_column = None
        n_partitions = 1

    sum_specs = [s for s in spec.aggregates if s.kind == "sum"]
    other_specs = [s for s in spec.aggregates if s.kind != "sum"]
    units: dict[str, list[int]] = {s.name: [] for s in sum_specs}
    plain_parts: dict[str, list] = {s.name: [] for s in other_specs}
    key_parts: dict[str, list] = {k: [] for k in spec.keys}
    partition_parts: list[np.ndarray] = []

    for p in range(n_partitions):
        lo, hi = bounds[p], bounds[p + 1]
        if hi <= lo:
            continue
        expressions = {
            agg.expr: evaluate_expression(table, agg.expr, lo, hi)
            for agg in spec.aggregates
            if agg.expr
        }
        if spec.keys:
            key_arrays = [np.asarray(table[k][lo:hi]) for k in spec.keys]
            inverse, n_groups = group_ids(key_arrays)  # ascending key tuples
            key_row = np.empty(n_groups, dtype=np.int64)
            key_row[inverse] = np.arange(hi - lo)  # any row of a group has its key
            representatives = [keys[key_row] for keys in key_arrays]
        else:
            inverse, n_groups = np.zeros(hi - lo, dtype=np.int64), 1
            representatives = []
        partition_parts.append(np.full(n_groups, p, dtype=np.int64))
        for key_name, values in zip(spec.keys, representatives):
            key_parts[key_name].append(values)
        for agg in sum_specs:
            units[agg.name] += ExactSum.grouped_units(
                expressions[agg.expr], inverse, n_groups
            ).tolist()
        for agg in other_specs:
            if agg.kind == "count":
                plain_parts[agg.name].append(np.bincount(inverse, minlength=n_groups))
                continue
            extreme = np.full(n_groups, np.inf if agg.kind == "min" else -np.inf)
            fold = np.minimum if agg.kind == "min" else np.maximum
            fold.at(extreme, inverse, expressions[agg.expr])
            plain_parts[agg.name].append(extreme)

    encoded = {name: encode_units(sums) for name, sums in units.items()}
    return RollupTable(
        name=spec.name,
        base_table=spec.table,
        keys=spec.keys,
        partition_column=partition_column,
        n_partitions=n_partitions,
        source_rows=table.n_rows,
        partition_ids=np.concatenate(partition_parts),
        key_columns={k: np.concatenate(parts) for k, parts in key_parts.items()},
        aggregates=spec.aggregates,
        sum_signs={name: signs for name, (signs, _, _) in encoded.items()},
        sum_magnitudes={name: mags for name, (_, mags, _) in encoded.items()},
        sum_widths={name: width for name, (_, _, width) in encoded.items()},
        plain={name: np.concatenate(parts) for name, parts in plain_parts.items()},
    )


def build_and_attach(db, spec: RollupSpec | None = None) -> RollupTable:
    """Build a rollup and register it in the database catalog."""
    rollup = build_rollup(db, spec or default_lineitem_spec())
    db.add_rollup(rollup)
    return rollup
