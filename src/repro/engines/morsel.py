"""Shared helpers for morsel (row-range) execution.

The engines' ``run_*`` methods accept ``row_range=(lo, hi)`` and then
execute only that slice of the partitioned table, returning a *partial*
:class:`~repro.engines.base.QueryResult` whose ``details["partial"]``
carries exactly mergeable value state.  This module holds what all four
engines share:

* **Alignment** -- morsel boundaries are multiples of
  :data:`MORSEL_ALIGN` rows, so cache lines (8 values of 8 bytes) and
  row-store pages never straddle a boundary and per-morsel line/page
  counts add up exactly to the single-shot counts.
* **Range-sliced byte accounting** -- ``bytes_for_rows`` /
  ``row_scan_bytes`` are the ranged versions of
  ``ColumnTable.bytes_for`` / ``RowTable.scan_bytes`` and telescope
  exactly (integer bytes, first-row page attribution).
* **Shared global structures** -- hash tables, group-by tables and
  sorted lookup sides depend on *all* rows, not a morsel's; they are
  built once per process and memoized by database identity + tag
  (join hash tables by key column, :func:`key_table`), so a worker
  executing many morsels never rebuilds them.
* **Exactly mergeable state** -- :func:`merge_states` folds the
  per-morsel value states (ints, :class:`ExactSum`, numpy arrays, sets,
  nested dicts) with exact, associative, commutative operations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.exactsum import ExactSum
from repro.engines.hashtable import ChainedHashTable

#: Morsel boundaries must be multiples of this row count: one 64-byte
#: cache line of the widest (8-byte) values, which also divides the
#: row-store rows-per-page granularity used for page attribution.
MORSEL_ALIGN = 64

#: Values per cache line used for gather density accounting -- the
#: engines account all gathers at the 8-byte granularity of the summed
#: money columns (matching :func:`repro.engines.base.line_density`'s
#: default).
_VALUES_PER_LINE = 8


def resolve_range(row_range, n_rows: int) -> tuple[int, int]:
    """Validate ``row_range`` against the partitioned table.

    ``None`` means the full table.  Explicit ranges must be non-empty,
    inside ``[0, n_rows]`` and aligned to :data:`MORSEL_ALIGN` (the
    upper bound may be ``n_rows`` itself for the final morsel).
    """
    if row_range is None:
        return 0, int(n_rows)
    lo, hi = int(row_range[0]), int(row_range[1])
    if not 0 <= lo < hi <= n_rows:
        raise ValueError(
            f"row_range {row_range!r} out of bounds for {n_rows} rows"
        )
    if lo % MORSEL_ALIGN or (hi != n_rows and hi % MORSEL_ALIGN):
        raise ValueError(
            f"row_range {row_range!r} must be aligned to {MORSEL_ALIGN} rows"
        )
    return lo, hi


def morsel_ranges(n_rows: int, pieces: int) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into up to ``pieces`` aligned, non-empty,
    contiguous ranges of near-equal size."""
    if n_rows <= 0:
        raise ValueError("cannot partition an empty table")
    if pieces <= 0:
        raise ValueError("pieces must be positive")
    bounds = [0]
    for index in range(1, pieces):
        cut = (n_rows * index // pieces) // MORSEL_ALIGN * MORSEL_ALIGN
        if cut > bounds[-1]:
            bounds.append(cut)
    bounds.append(n_rows)
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


# ----------------------------------------------------------------------
# Ranged byte accounting
# ----------------------------------------------------------------------
def bytes_for_rows(table, column_names, lo: int, hi: int) -> int:
    """Bytes the rows ``[lo, hi)`` of the named columns occupy; sums to
    ``table.bytes_for(column_names)`` over any aligned partitioning.

    Always the *logical* (decoded) widths: work profiles are defined
    over them regardless of how the columns are stored, which is what
    keeps encoded and raw execution bit-identical.  The compressed
    footprint goes through :func:`encoded_bytes_for_rows` instead."""
    return sum(table.column(name).itemsize for name in column_names) * (hi - lo)


def encoded_bytes_for_rows(
    table, column_names, lo: int, hi: int, decoded=()
) -> float:
    """Bytes a code-domain scan of rows ``[lo, hi)`` actually reads:
    the encoded scan width for encoded columns, the raw width
    otherwise.  This is the opt-in side channel the compression
    analyses (``sec8-compression``, the bench) feed into the bandwidth
    model; the default execution path never records it.

    ``decoded`` names columns the execution decodes before use despite
    their encoding -- measures whose morph decision
    (``details["encoded_agg"]``) chose decode-then-sum stream at their
    *logical* width, which keeps modeled byte volumes honest now that
    aggregation itself can stay in the code domain."""
    decoded = set(decoded)
    total = 0.0
    for name in column_names:
        encoded = table.encoding(name) if hasattr(table, "encoding") else None
        if encoded is not None and name not in decoded:
            total += encoded.scan_itemsize * (hi - lo)
        else:
            total += table.column(name).itemsize * (hi - lo)
    return total


def row_page_geometry(table) -> tuple[int, int]:
    """(row_bytes, rows_per_page) of a table's row-layout twin, derived
    from the column dtypes without materialising the structured array
    (matching :class:`repro.storage.row.RowTable`'s construction)."""
    from repro.storage.row import DEFAULT_PAGE_BYTES

    dtype = np.dtype(
        [(name, table.column(name).dtype) for name in table.column_names]
    )
    row_bytes = dtype.itemsize
    rows_per_page = max(1, DEFAULT_PAGE_BYTES // row_bytes) if table.n_rows else 1
    return row_bytes, rows_per_page


def row_scan_bytes(db, table_name: str, lo: int, hi: int) -> float:
    """Bytes a row-store scan of rows ``[lo, hi)`` moves: each page is
    attributed to the morsel containing its first row, so per-morsel
    page counts telescope exactly to ``RowTable.scan_bytes()``."""
    from repro.storage.row import DEFAULT_PAGE_BYTES

    table = db.table(table_name)
    if not table.n_rows:
        return 0.0
    _, rows_per_page = row_page_geometry(table)
    pages = -(-hi // rows_per_page) - (-(-lo // rows_per_page))
    return float(pages * DEFAULT_PAGE_BYTES)


def touched_lines(
    indices: np.ndarray, values_per_line: int, first_line: int, end_line: int
) -> int:
    """How many distinct cache lines of ``[first_line, end_line)`` the
    row ``indices`` fall on.

    A flag scatter over the line range: O(indices + lines) with no sort
    or hash, exact for unsorted and repeated indices.  Indices outside
    the range raise :class:`IndexError`.
    """
    lines = np.asarray(indices) // values_per_line - first_line
    if not len(lines):
        return 0
    if lines.min() < 0:
        raise IndexError("gather index below the line range")
    flags = np.zeros(end_line - first_line, dtype=bool)
    flags[lines] = True
    return int(np.count_nonzero(flags))


def gather_lines(global_indices: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """(touched, total) cache-line counts of a gather at the given
    *global* row indices within morsel ``[lo, hi)``.

    Lines are attributed to the morsel containing their first row;
    with :data:`MORSEL_ALIGN`-aligned morsels every line lies entirely
    inside one morsel, so both counts sum exactly to the single-shot
    ``line_density`` accounting.
    """
    end_line = -(-hi // _VALUES_PER_LINE)
    touched = touched_lines(
        global_indices, _VALUES_PER_LINE, lo // _VALUES_PER_LINE, end_line
    )
    return touched, end_line - (-(-lo // _VALUES_PER_LINE))


# ----------------------------------------------------------------------
# Shared global structures
# ----------------------------------------------------------------------
_STRUCTURES: OrderedDict[tuple, object] = OrderedDict()
_STRUCTURES_LOCK = threading.Lock()
_STRUCTURES_CAP = 16


def shared_structure(db, tag, build):
    """Build-once access to a query's global data structures (hash
    tables, sorted lookup sides) keyed by database identity + ``tag``.

    The structures depend on entire base tables, never on a morsel's
    row range, so every morsel of every execution of the same query
    over the same data shares one instance.  A small LRU bounds worker
    memory."""
    key = (db.identity, tag)
    with _STRUCTURES_LOCK:
        if key in _STRUCTURES:
            _STRUCTURES.move_to_end(key)
            return _STRUCTURES[key]
    value = build()
    with _STRUCTURES_LOCK:
        existing = _STRUCTURES.get(key)
        if existing is not None:
            return existing
        _STRUCTURES[key] = value
        while len(_STRUCTURES) > _STRUCTURES_CAP:
            _STRUCTURES.popitem(last=False)
    return value


def key_table(db, table: str, column: str) -> ChainedHashTable:
    """The one hash table over a key column of a base table: every
    query and engine joining on that column probes the same build."""
    return shared_structure(
        db, ("key-table", table, column),
        lambda: ChainedHashTable(db.table(table)[column]),
    )


def clear_shared_structures() -> None:
    with _STRUCTURES_LOCK:
        _STRUCTURES.clear()


# ----------------------------------------------------------------------
# Exactly mergeable value state
# ----------------------------------------------------------------------
def merge_states(target: dict, other: dict) -> dict:
    """Fold one morsel's value state into another, exactly.

    Supported leaf types and their merge operations (all exact,
    associative and commutative, so work stealing may deliver partials
    in any order):

    - ``int`` and (dyadic) ``float``: addition
    - :class:`ExactSum`: exact addition
    - ``numpy.ndarray``: elementwise addition (integer-valued contents)
    - ``set`` / ``frozenset``: union
    - ``dict``: recursive key-wise merge (missing keys are adopted)
    - keys starting with ``"const_"``: must be equal on both sides
    """
    for key, value in other.items():
        if key not in target:
            target[key] = value
            continue
        current = target[key]
        if key.startswith("const_"):
            if isinstance(current, np.ndarray) or isinstance(value, np.ndarray):
                if not np.array_equal(current, value):
                    raise ValueError(f"morsel constant {key!r} diverges")
            elif current != value:
                raise ValueError(
                    f"morsel constant {key!r} diverges: {current!r} vs {value!r}"
                )
        elif isinstance(current, ExactSum):
            target[key] = current + value
        elif isinstance(current, dict):
            merge_states(current, value)
        elif isinstance(current, (set, frozenset)):
            target[key] = set(current) | set(value)
        elif isinstance(current, np.ndarray):
            target[key] = current + value
        elif isinstance(current, (int, float, np.integer, np.floating)):
            target[key] = current + value
        else:
            raise TypeError(
                f"cannot merge state key {key!r} of type {type(current).__name__}"
            )
    return target


def merge_worker_partials(partials: list):
    """Fold several morsel partials into one (still partial) result:
    the pre-merge stage of every executor.

    Pool workers do this locally so only one partial per worker crosses
    the process boundary, a shard node before its partial crosses the
    wire, and :meth:`Engine.merge_morsels` before its finisher.  All
    merge operations are commutative and exact (see :func:`merge_states`
    and :meth:`WorkProfile.merge_partial`), so steal-order does not
    affect the merged bits.  The synthetic row range spans the merged
    morsels (ranges are only used to order partials deterministically).
    """
    partials = sorted(partials, key=lambda result: result.details["row_range"])
    first = partials[0]
    state = first.details["partial"]
    work = first.work
    operators = first.details.get("operators")
    tuples = first.tuples
    lo, hi = first.details["row_range"]
    for partial in partials[1:]:
        merge_states(state, partial.details["partial"])
        work.merge_partial(partial.work)
        tuples += partial.tuples
        other_ops = partial.details.get("operators")
        if (operators is None) != (other_ops is None):
            raise ValueError("partial operator profiles are not congruent")
        if operators is not None:
            if operators.keys() != other_ops.keys():
                raise ValueError("partial operator profiles are not congruent")
            for name, profile in operators.items():
                profile.merge_partial(other_ops[name])
        other_lo, other_hi = partial.details["row_range"]
        lo, hi = min(lo, other_lo), max(hi, other_hi)
    first.details["row_range"] = (lo, hi)
    first.tuples = tuples
    return first
