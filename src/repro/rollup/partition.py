"""Declarative range partitioning of a :class:`ColumnTable`.

A :class:`PartitionSpec` names one column and a strictly increasing
sequence of break values; partition ``i`` holds the rows whose value
falls in ``[breaks[i-1], breaks[i])`` (open at both ends).  Partitioned
storage here means *clustering*: the table's rows are physically sorted
so each partition is one contiguous row range, and a
:class:`Partitioning` records the row bounds plus per-partition min/max
statistics of the partition column.

Those statistics serve two consumers:

* :mod:`repro.core.pruning` uses them as a coarse pre-pass -- a chunk
  wholly inside a partition the statistics decide inherits the verdict
  without the zone map ever being built or consulted;
* :mod:`repro.rollup.router` uses them to decide whether a query's
  range predicate is *partition-decidable* (every non-empty partition
  either passes entirely or fails entirely), the precondition for
  answering the query from a pre-aggregated rollup.

Verdicts are theorems, never guesses: a partition is ALL_TRUE only when
its observed ``[min, max]`` interval proves every row passes, ALL_FALSE
only when it proves none can.  Empty partitions report ALL_FALSE
(vacuously: no row can pass) and cover no rows, so they never decide a
chunk and never contribute to a routed result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.zonemap import ALL_FALSE, MIXED, interval_verdicts


@dataclass(frozen=True)
class PartitionSpec:
    """Range partitioning on one column.

    ``breaks`` must be strictly increasing; with ``k`` breaks there are
    ``k + 1`` partitions (the first and last are open-ended).
    """

    column: str
    breaks: tuple[float, ...]

    def __post_init__(self) -> None:
        breaks = tuple(float(b) for b in self.breaks)
        object.__setattr__(self, "breaks", breaks)
        if not breaks:
            raise ValueError("a PartitionSpec needs at least one break")
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise ValueError("partition breaks must be strictly increasing")

    @property
    def n_partitions(self) -> int:
        return len(self.breaks) + 1

    def partition_ids(self, values: np.ndarray) -> np.ndarray:
        """Partition id of each value (``0 .. n_partitions - 1``)."""
        return np.searchsorted(
            np.asarray(self.breaks), np.asarray(values), side="right"
        ).astype(np.int64)


@dataclass(frozen=True)
class Partitioning:
    """Clustered-partition metadata attached to a :class:`ColumnTable`.

    ``bounds`` has ``n_partitions + 1`` entries: partition ``p`` is rows
    ``[bounds[p], bounds[p + 1])``.  ``mins``/``maxs`` are the observed
    value-domain extrema of the partition column per partition (NaN for
    empty partitions).
    """

    column: str
    breaks: tuple[float, ...]
    bounds: np.ndarray = field(compare=False)
    mins: np.ndarray = field(compare=False)
    maxs: np.ndarray = field(compare=False)

    @property
    def n_partitions(self) -> int:
        return len(self.bounds) - 1

    @property
    def n_rows(self) -> int:
        return int(self.bounds[-1])

    @property
    def row_counts(self) -> np.ndarray:
        return np.diff(self.bounds)

    def partition_range(self, p: int) -> tuple[int, int]:
        return int(self.bounds[p]), int(self.bounds[p + 1])

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def verdicts(self, op: str, threshold: float) -> np.ndarray:
        """Per-partition verdict of ``column <op> threshold`` (int8 of
        ALL_FALSE / ALL_TRUE / MIXED; empty partitions are ALL_FALSE)."""
        out = interval_verdicts(op, float(threshold), self.mins, self.maxs)
        out[self.row_counts == 0] = ALL_FALSE
        return out.astype(np.int8)

    def chunk_verdicts(
        self, op: str, threshold: float, chunk_rows: int, n_rows: int
    ) -> np.ndarray:
        """Per-chunk verdicts decided purely from partition statistics.

        A chunk wholly inside one partition inherits that partition's
        verdict; a chunk straddling several inherits their common
        verdict when the (non-empty) overlapped partitions agree, and is
        MIXED otherwise.  The zone map is never consulted here -- the
        caller refines remaining MIXED chunks against it only if any
        survive.
        """
        if n_rows != self.n_rows:
            raise ValueError(
                f"partitioning covers {self.n_rows} rows, table has {n_rows}"
            )
        n_chunks = -(-n_rows // chunk_rows)
        out = np.full(n_chunks, MIXED, dtype=np.int8)
        partition_verdicts = self.verdicts(op, threshold)
        counts = self.row_counts
        starts = np.arange(n_chunks, dtype=np.int64) * chunk_rows
        ends = np.minimum(starts + chunk_rows, n_rows)
        # Last partition whose start is <= the row; bounds[p] <= row <
        # bounds[p + 1] and partition p is non-empty at that row.
        p_lo = np.searchsorted(self.bounds, starts, side="right") - 1
        p_hi = np.searchsorted(self.bounds, ends - 1, side="right") - 1
        inside = p_lo == p_hi
        out[inside] = partition_verdicts[p_lo[inside]]
        for index in np.flatnonzero(~inside):
            spanned = {
                int(partition_verdicts[p])
                for p in range(int(p_lo[index]), int(p_hi[index]) + 1)
                if counts[p] > 0
            }
            if len(spanned) == 1:
                out[index] = spanned.pop()
        return out

    # ------------------------------------------------------------------
    # Serialization (dbcache / shm)
    # ------------------------------------------------------------------
    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {"column": self.column, "breaks": [float(b) for b in self.breaks]}
        arrays = {
            "bounds": np.ascontiguousarray(self.bounds, dtype=np.int64),
            "mins": np.ascontiguousarray(self.mins, dtype=np.float64),
            "maxs": np.ascontiguousarray(self.maxs, dtype=np.float64),
        }
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict) -> "Partitioning":
        return cls(
            column=str(meta["column"]),
            breaks=tuple(float(b) for b in meta["breaks"]),
            bounds=np.asarray(arrays["bounds"], dtype=np.int64),
            mins=np.asarray(arrays["mins"], dtype=np.float64),
            maxs=np.asarray(arrays["maxs"], dtype=np.float64),
        )


def build_partitioning(values: np.ndarray, spec: PartitionSpec) -> Partitioning:
    """Partitioning metadata for an already *clustered* column.

    ``values`` must be sorted by partition id (not necessarily by value
    within a partition); raises otherwise, because contiguous row bounds
    would be a lie.
    """
    values = np.asarray(values)
    ids = spec.partition_ids(values)
    if len(ids) and np.any(np.diff(ids) < 0):
        raise ValueError(
            f"column {spec.column!r} is not clustered by partition; "
            f"sort rows by partition id first"
        )
    n = spec.n_partitions
    bounds = np.searchsorted(ids, np.arange(n + 1), side="left").astype(np.int64)
    mins = np.full(n, np.nan)
    maxs = np.full(n, np.nan)
    for p in range(n):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        if hi > lo:
            mins[p] = values[lo:hi].min()
            maxs[p] = values[lo:hi].max()
    return Partitioning(
        column=spec.column, breaks=spec.breaks, bounds=bounds, mins=mins, maxs=maxs
    )


def partitioned_database(db, spec: PartitionSpec, table_name: str = "lineitem"):
    """A twin database whose ``table_name`` is clustered by ``spec``
    with a :class:`Partitioning` attached.

    Rows are stably sorted by partition id -- within a partition the
    original row order is preserved, so per-partition aggregates stay
    reproducible.  The reordered table keeps the parent's code spaces
    (:meth:`ColumnTable.select`); every other table is shared by
    reference.
    """
    table = db.table(table_name)
    if spec.column not in table:
        raise KeyError(f"table {table_name!r} has no column {spec.column!r}")
    values = np.asarray(table[spec.column])
    ids = spec.partition_ids(values).astype(np.min_scalar_type(spec.n_partitions))
    order = np.argsort(ids, kind="stable")
    clustered = table.select(order)
    clustered.set_partitioning(build_partitioning(values[order], spec))
    return db.twin(f"{db.name}-part", {table_name: clustered})
