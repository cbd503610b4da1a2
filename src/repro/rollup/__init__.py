"""Materialized rollups and partitioned tables (see DESIGN §2b.7).

The subsystem sits between storage and planning: declarative range
partitioning clusters a table into contiguous partitions with min/max
statistics (:mod:`repro.rollup.partition`), rollup tables materialize
exactly mergeable pre-aggregated partials per (partition, group)
(:mod:`repro.rollup.table`, :mod:`repro.rollup.build`), and a router
substitutes a rollup scan for a base-table scan whenever the query is
subsumed (:mod:`repro.rollup.router`) -- falling back otherwise, with
bit-identical values either way.
"""

from repro.rollup.build import (
    DEFAULT_AGGREGATES,
    RollupSpec,
    build_and_attach,
    build_rollup,
    default_lineitem_spec,
    evaluate_expression,
)
from repro.rollup.partition import (
    PartitionSpec,
    Partitioning,
    build_partitioning,
    partitioned_database,
)
from repro.rollup.router import (
    QueryProfile,
    attempt,
    has_rollups,
    profile_for,
    route,
)
from repro.rollup.table import AggregateSpec, RollupTable

__all__ = [
    "AggregateSpec",
    "DEFAULT_AGGREGATES",
    "PartitionSpec",
    "Partitioning",
    "QueryProfile",
    "RollupSpec",
    "RollupTable",
    "attempt",
    "build_and_attach",
    "build_partitioning",
    "build_rollup",
    "default_lineitem_spec",
    "evaluate_expression",
    "has_rollups",
    "partitioned_database",
    "profile_for",
    "route",
]
