"""Hash/range sharding of the fact table into per-shard databases.

Only ``lineitem`` (the fact table every morsel-capable runner drives
over) is split; dimension tables are replicated into every shard by
reference, so joins and reference finishers see exactly the data a
single node would.

Two invariants make sharded execution bit-identical to single-node:

- **Exactness does not depend on row placement.**  Every merged
  aggregate is an :class:`~repro.core.exactsum.ExactSum` (int64 limb
  arrays of 2**-1074 units) or an integer count, and exact merging --
  aligned integer addition -- is associative and commutative, so hash
  sharding, which *permutes* rows across shards, still reproduces the
  single-scan value to the last bit.
- **Code spaces are inherited from the parent.**  Shard fact columns
  are the parent's rows taken by :meth:`ColumnTable.select`: dictionary
  and FoR codes are gathered under the parent dictionary (and the
  parent FoR reference/width), never a fresh one.  Compiled group keys
  travel as dictionary codes and are decoded against static per-column
  dictionaries, so a shard-local dictionary would silently renumber
  groups.  RLE goes back through the load-time policy (it is positional
  and decodes back to values), raw columns stay raw.
"""

from __future__ import annotations

import numpy as np

from repro.storage.catalog import Database

SHARD_MODES = ("hash", "range")
FACT_TABLE = "lineitem"
DEFAULT_SHARD_KEY = "l_orderkey"


def _mix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit finalizer (splitmix64) so shard ownership
    is well spread even for sequential keys, on every platform."""
    h = values.astype(np.uint64, copy=True)
    h += np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def shard_assignment(
    db: Database,
    n_shards: int,
    mode: str = "hash",
    fact_table: str = FACT_TABLE,
    key_column: str = DEFAULT_SHARD_KEY,
) -> list[np.ndarray]:
    """Sorted row-index array per shard, a partition of ``arange(n)``.

    ``range`` slices the table into contiguous near-equal chunks (rows
    keep their physical clustering, so zone maps and RLE stay sharp);
    ``hash`` assigns each row by a mixed hash of ``key_column`` (the
    distribution-friendly choice: co-keyed rows land together).  Hash
    indices are kept sorted within each shard so shard-local scans
    still stream in parent order.
    """
    if mode not in SHARD_MODES:
        raise ValueError(f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    n_rows = db.table(fact_table).n_rows
    if mode == "range" or n_shards == 1:
        bounds = [round(i * n_rows / n_shards) for i in range(n_shards + 1)]
        return [
            np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
            for i in range(n_shards)
        ]
    keys = np.asarray(db.table(fact_table)[key_column]).astype(np.int64)
    owner = _mix64(keys) % np.uint64(n_shards)
    return [
        np.flatnonzero(owner == np.uint64(shard_id)).astype(np.int64)
        for shard_id in range(n_shards)
    ]


def shard_database(
    db: Database,
    indices: np.ndarray,
    shard_id: int,
    n_shards: int,
    mode: str,
    fact_table: str = FACT_TABLE,
) -> Database:
    """One shard: the fact-table subset plus every dimension replicated.

    Rollups attached to the parent are rebuilt *per shard* (their SUM
    partials read back as ExactSum limb arrays, so shard rollups merge
    exactly across nodes just like scans do).  The shard database gets a stable
    derived ``cache_key`` so per-database caches (zone maps, compiled
    programs, group tables) never collide with the parent's.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise ValueError(
            f"shard {shard_id} of {n_shards} ({mode}) owns no {fact_table} rows; "
            "use fewer shards for this scale factor"
        )
    shard = db.twin(
        f"{db.name}-shard{shard_id}", {fact_table: db.table(fact_table).select(indices)}
    )
    # Identity last: add_table resets it, and shard caches must key on
    # (parent identity, shard coordinates), not a fresh uid per build.
    shard.cache_key = f"{db.identity}/shard-{mode}-{shard_id}of{n_shards}"
    for rollup_name in getattr(db, "rollup_names", ()):
        parent_rollup = db.rollup(rollup_name)
        if parent_rollup.base_table != fact_table:
            shard.add_rollup(parent_rollup)
            continue
        from repro.rollup.build import RollupSpec, build_and_attach

        build_and_attach(
            shard,
            RollupSpec(
                name=parent_rollup.name,
                table=parent_rollup.base_table,
                keys=parent_rollup.keys,
                aggregates=parent_rollup.aggregates,
            ),
        )
    return shard


def build_shards(
    db: Database,
    n_shards: int,
    mode: str = "hash",
    fact_table: str = FACT_TABLE,
    key_column: str = DEFAULT_SHARD_KEY,
) -> list[Database]:
    """Shard ``db`` into ``n_shards`` databases (see the module docs)."""
    assignment = shard_assignment(db, n_shards, mode, fact_table, key_column)
    return [
        shard_database(db, indices, shard_id, n_shards, mode, fact_table)
        for shard_id, indices in enumerate(assignment)
    ]
