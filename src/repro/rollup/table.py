"""Materialized rollup tables: pre-aggregated partials per (group,
partition).

A :class:`RollupTable` holds one row per (partition, group-key tuple)
present in the base table, and for each aggregate a *partial* that
merges exactly:

* ``sum`` partials are :class:`~repro.core.exactsum.ExactSum` units --
  integers counting 2^-1074 quanta.  Adding units across any subset of
  rollup rows and rounding once reproduces, bit for bit, what the
  engines compute with ``ExactSum.of_array`` over the same base rows.
  Units are persisted as a sign byte plus a fixed-width big-endian
  magnitude (the width is per-aggregate metadata), so the payload is
  plain numpy arrays that ship through dbcache files and shared-memory
  segments unchanged.  :func:`~repro.core.exactsum.encode_units` writes
  them; :meth:`RollupTable.sum_units` reads them back with
  :meth:`ExactSum.of_bytes`, a view, no Python per row.
* ``count`` partials are int64 row counts.
* ``min``/``max`` partials are float64 extrema (min of mins is the min).

The table is deliberately storage-only: matching a query against a
rollup and assembling a result live in :mod:`repro.rollup.router`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exactsum import ExactSum

AGG_KINDS = ("sum", "count", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column of a rollup: ``kind`` over expression
    ``expr`` (an :data:`repro.rollup.build.EXPRESSIONS` key; empty for
    ``count``)."""

    name: str
    kind: str
    expr: str = ""

    def __post_init__(self) -> None:
        if self.kind not in AGG_KINDS:
            raise ValueError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and not self.expr:
            raise ValueError(f"aggregate {self.name!r} needs an expression")


class RollupTable:
    """One materialized rollup (see module docstring)."""

    def __init__(
        self,
        name: str,
        base_table: str,
        keys: tuple[str, ...],
        partition_column: str | None,
        n_partitions: int,
        source_rows: int,
        partition_ids: np.ndarray,
        key_columns: dict[str, np.ndarray],
        aggregates: tuple[AggregateSpec, ...],
        sum_signs: dict[str, np.ndarray],
        sum_magnitudes: dict[str, np.ndarray],
        sum_widths: dict[str, int],
        plain: dict[str, np.ndarray],
    ):
        self.name = name
        self.base_table = base_table
        self.keys = tuple(keys)
        self.partition_column = partition_column
        self.n_partitions = int(n_partitions)
        self.source_rows = int(source_rows)
        self.partition_ids = np.asarray(partition_ids, dtype=np.int64)
        self.key_columns = {k: np.asarray(v) for k, v in key_columns.items()}
        self.aggregates = tuple(aggregates)
        self._sum_signs = sum_signs
        self._sum_magnitudes = sum_magnitudes
        self._sum_widths = {k: int(v) for k, v in sum_widths.items()}
        self._plain = plain
        n = len(self.partition_ids)
        for key_name, values in self.key_columns.items():
            if len(values) != n:
                raise ValueError(f"key column {key_name!r} length mismatch")

    @property
    def n_rows(self) -> int:
        return len(self.partition_ids)

    @property
    def nbytes(self) -> int:
        total = self.partition_ids.nbytes
        total += sum(v.nbytes for v in self.key_columns.values())
        total += sum(v.nbytes for v in self._sum_signs.values())
        total += sum(v.nbytes for v in self._sum_magnitudes.values())
        total += sum(v.nbytes for v in self._plain.values())
        return total

    def aggregate_named(self, kind: str, expr: str = "") -> AggregateSpec | None:
        """The aggregate of this kind over this expression, if present."""
        for spec in self.aggregates:
            if spec.kind == kind and spec.expr == expr:
                return spec
        return None

    def row_bytes(self, agg_names: tuple[str, ...]) -> int:
        """Per-row bytes a reader touches for the named aggregates plus
        the key and partition-id columns (the router's honest traffic)."""
        per_row = self.partition_ids.itemsize
        per_row += sum(v.dtype.itemsize for v in self.key_columns.values())
        by_name = {spec.name: spec for spec in self.aggregates}
        for agg_name in agg_names:
            spec = by_name[agg_name]
            if spec.kind == "sum":
                per_row += 1 + self._sum_widths[agg_name]
            else:
                per_row += self._plain[agg_name].dtype.itemsize
        return per_row

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def sum_units(self, agg_name: str, indices: np.ndarray) -> ExactSum:
        """Exact total of a ``sum`` aggregate over rollup rows."""
        indices = np.asarray(indices, dtype=np.int64)
        magnitudes = self._sum_magnitudes[agg_name].reshape(
            -1, self._sum_widths[agg_name]
        )
        return ExactSum.of_bytes(
            self._sum_signs[agg_name][indices], magnitudes[indices]
        ).sum()

    def plain_column(self, agg_name: str) -> np.ndarray:
        """The int64/float64 array of a count/min/max aggregate."""
        return self._plain[agg_name]

    # ------------------------------------------------------------------
    # Serialization (dbcache / shm)
    # ------------------------------------------------------------------
    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {
            "name": self.name,
            "base_table": self.base_table,
            "keys": list(self.keys),
            "partition_column": self.partition_column,
            "n_partitions": self.n_partitions,
            "source_rows": self.source_rows,
            "aggregates": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "expr": spec.expr,
                    **(
                        {"width": self._sum_widths[spec.name]}
                        if spec.kind == "sum"
                        else {}
                    ),
                }
                for spec in self.aggregates
            ],
        }
        arrays: dict[str, np.ndarray] = {"partition_ids": self.partition_ids}
        for key_name, values in self.key_columns.items():
            arrays[f"key.{key_name}"] = values
        for spec in self.aggregates:
            if spec.kind == "sum":
                arrays[f"agg.{spec.name}.sign"] = self._sum_signs[spec.name]
                arrays[f"agg.{spec.name}.mag"] = self._sum_magnitudes[spec.name]
            else:
                arrays[f"agg.{spec.name}"] = self._plain[spec.name]
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict) -> "RollupTable":
        keys = tuple(meta["keys"])
        aggregates = tuple(
            AggregateSpec(entry["name"], entry["kind"], entry.get("expr", ""))
            for entry in meta["aggregates"]
        )
        sum_signs: dict[str, np.ndarray] = {}
        sum_magnitudes: dict[str, np.ndarray] = {}
        sum_widths: dict[str, int] = {}
        plain: dict[str, np.ndarray] = {}
        for entry, spec in zip(meta["aggregates"], aggregates):
            if spec.kind == "sum":
                sum_signs[spec.name] = np.asarray(
                    arrays[f"agg.{spec.name}.sign"], dtype=np.int8
                )
                sum_magnitudes[spec.name] = np.asarray(
                    arrays[f"agg.{spec.name}.mag"], dtype=np.uint8
                )
                sum_widths[spec.name] = int(entry["width"])
            else:
                plain[spec.name] = np.asarray(arrays[f"agg.{spec.name}"])
        return cls(
            name=str(meta["name"]),
            base_table=str(meta["base_table"]),
            keys=keys,
            partition_column=meta.get("partition_column"),
            n_partitions=int(meta["n_partitions"]),
            source_rows=int(meta["source_rows"]),
            partition_ids=np.asarray(arrays["partition_ids"], dtype=np.int64),
            key_columns={k: np.asarray(arrays[f"key.{k}"]) for k in keys},
            aggregates=aggregates,
            sum_signs=sum_signs,
            sum_magnitudes=sum_magnitudes,
            sum_widths=sum_widths,
            plain=plain,
        )

    def __reduce__(self):
        raise TypeError(
            f"RollupTable {self.name!r} must not be pickled; ship rollup "
            f"payloads across processes via repro.storage.shm instead"
        )
