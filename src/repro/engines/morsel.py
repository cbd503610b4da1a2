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
* **Range-sliced byte accounting** -- ``bytes_for_rows`` is the ranged
  version of ``ColumnTable.bytes_for``; ``row_page_geometry`` /
  ``row_scan_bytes`` are the one statement of the row-store (NSM)
  layout: full tuples on :data:`DEFAULT_PAGE_BYTES` pages, derived from
  the column dtypes.  Both telescope exactly (integer bytes, first-row
  page attribution).
* **Shared global structures** -- hash tables, group-by tables and
  sorted lookup sides depend on *all* rows, not a morsel's; they are
  built once per process and memoized by database identity + tag
  (join hash tables by key column, :func:`key_table`), so a worker
  executing many morsels never rebuilds them.
* **Exactly mergeable state** -- :func:`merge_states` folds the
  per-morsel value states (ints, :class:`ExactSum`, key-addressed
  :class:`GroupedPartial` group tables, numpy arrays, sets, nested
  dicts) with exact, associative, commutative operations.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro import memo
from repro.core.exactsum import ExactSum
from repro.engines.hashtable import ChainedHashTable

#: Morsel boundaries must be multiples of this row count: one 64-byte
#: cache line of the widest (8-byte) values, which also divides the
#: row-store rows-per-page granularity used for page attribution.
MORSEL_ALIGN = 64

#: Page size of the row store (DBMS R): every scan moves whole pages of
#: full tuples, whichever attributes the query reads.
DEFAULT_PAGE_BYTES = 8192

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
    """(row_bytes, rows_per_page) of a table's row-store pages: a row is
    the packed structured dtype of all its columns, and a page holds as
    many whole rows as fit in :data:`DEFAULT_PAGE_BYTES` (at least one)."""
    dtype = np.dtype(
        [(name, table.column(name).dtype) for name in table.column_names]
    )
    row_bytes = dtype.itemsize
    rows_per_page = max(1, DEFAULT_PAGE_BYTES // row_bytes) if table.n_rows else 1
    return row_bytes, rows_per_page


def row_scan_bytes(db, table_name: str, lo: int, hi: int) -> float:
    """Bytes a row-store scan of rows ``[lo, hi)`` moves: each page is
    attributed to the morsel containing its first row, so per-morsel
    page counts telescope exactly to the full scan's
    ``ceil(n_rows / rows_per_page)`` pages."""
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
#: Sized from measurement: the scan statement mix holds 6 structures,
#: the compiled mix 13, both together 19.  Compiled build sides are
#: keyed by their step, literals included, so a stream of fresh ad hoc
#: statements evicts at any count bound.
_STRUCTURES = memo.shared("structures", 32)


def shared_structure(db, tag, build):
    """Build-once access to a query's global data structures (hash
    tables, sorted lookup sides) keyed by database identity + ``tag``.

    The structures depend on entire base tables, never on a morsel's
    row range, so every morsel of every execution of the same query
    over the same data shares one instance.  A small LRU bounds worker
    memory."""
    return _STRUCTURES.get_or_build((db.identity, tag), build)


def key_table(db, table: str, column: str) -> ChainedHashTable:
    """The one hash table over a key column of a base table: every
    query and engine joining on that column probes the same build."""
    return shared_structure(
        db, ("key-table", table, column),
        lambda: ChainedHashTable(db.table(table)[column]),
    )


# ----------------------------------------------------------------------
# Group ids
# ----------------------------------------------------------------------
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
    kind = keys.dtype.kind
    if kind == "i" or (kind == "u" and keys.dtype.itemsize < 8):
        low = int(keys.min())
        radix = int(keys.max()) - low + 1
        if radix <= _MAX_RADIX:
            if kind == "u":  # dictionary / FoR codes stay narrow; no wrap
                return keys - keys.dtype.type(low), radix
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


def group_ids(key_arrays) -> tuple[np.ndarray, int]:
    """Dense group ids of the rows' key tuples, ascending in tuple
    order: ``(ids, n_groups)``.  Key columns fold left to right into one
    mixed-radix code, compacted early only if it would leave int64."""
    if not len(key_arrays[0]):
        return np.empty(0, dtype=np.int64), 0
    codes, domain = _key_codes(key_arrays[0])
    for keys in key_arrays[1:]:
        key_codes, radix = _key_codes(keys)
        if domain * radix > _MAX_DOMAIN:
            codes, domain = _compact(codes, domain)
        domain *= radix
        # The narrowest dtype that holds ``domain`` (uint64 would turn
        # int64 codes into floats, so wide folds stay int64).
        fold = np.min_scalar_type(domain) if domain <= 1 << 32 else np.int64
        codes = codes.astype(fold, copy=False) * radix + key_codes
    return _compact(codes, domain)


# ----------------------------------------------------------------------
# Exactly mergeable value state
# ----------------------------------------------------------------------
class GroupedPartial:
    """Key-addressed grouped aggregate state: the merge leaf of compiled
    GROUP BY programs and of Q18.

    ``keys`` is a tuple of equal-length arrays whose rows are unique and
    ascending in tuple order; with no key arrays the partial holds
    exactly one group (an ungrouped aggregate).  ``columns`` maps a name
    to one value per group: an integer-valued int64/float64 array
    (counts, integer sums) or an :class:`ExactSum` column of exact sums.
    ``+`` is exact, associative and commutative, and picks its
    merge from the keys alone: identical keys add column-wise; otherwise
    the rows of one side below the other's first key and above its last
    key concatenate as they are, and only the overlap between is ranked
    (so partials of adjacent row ranges, which share at most the
    boundary group, merge at copying speed).
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns: dict):
        self.keys = tuple(keys)
        self.columns = columns

    @property
    def n_groups(self) -> int:
        return len(self.keys[0]) if self.keys else 1

    def __reduce__(self):
        return (GroupedPartial, (self.keys, self.columns))

    def __add__(self, other: "GroupedPartial") -> "GroupedPartial":
        if not isinstance(other, GroupedPartial):
            return NotImplemented
        if len(self.keys) != len(other.keys) or (
            self.columns.keys() != other.columns.keys()
        ):
            raise ValueError("grouped partials are not congruent")
        if not other.n_groups:
            return self
        if not self.n_groups:
            return other
        if self.n_groups == other.n_groups and all(
            mine is theirs or np.array_equal(mine, theirs)
            for mine, theirs in zip(self.keys, other.keys)
        ):
            return GroupedPartial(self.keys, {
                name: column + other.columns[name]
                for name, column in self.columns.items()
            })
        low, high = sorted((self, other), key=lambda partial: partial.key(0))
        start = bisect.bisect_left(range(low.n_groups), high.key(0), key=low.key)
        stop = bisect.bisect_right(range(high.n_groups), low.key(-1), key=high.key)
        return _concatenate(
            low.rows(0, start),
            _union(low.rows(start, None), high.rows(0, stop)),
            high.rows(stop, None),
        )

    def key(self, row: int) -> tuple:
        """The key tuple of one group, as Python scalars."""
        return tuple(keys[row].item() for keys in self.keys)

    def rows(self, start, stop) -> "GroupedPartial":
        """The groups ``[start, stop)`` (views of the arrays)."""
        return GroupedPartial(
            (keys[start:stop] for keys in self.keys),
            {name: column[start:stop] for name, column in self.columns.items()},
        )


def _arrays(columns: list) -> tuple[list, object]:
    """One column of each part as plain arrays, and the function that
    turns an array built from them back into such a column (unit
    columns share one limb window, see :meth:`ExactSum.aligned`)."""
    if isinstance(columns[0], ExactSum):
        return ExactSum.aligned(columns)
    return columns, lambda array: array


def _concatenate(*parts: GroupedPartial) -> GroupedPartial:
    """Partials whose key ranges ascend part by part, in order."""
    columns = {}
    for name in parts[0].columns:
        arrays, wrap = _arrays([part.columns[name] for part in parts])
        columns[name] = wrap(np.concatenate(arrays))
    keys = (np.concatenate(keys) for keys in zip(*(part.keys for part in parts)))
    return GroupedPartial(keys, columns)


def _union(left: GroupedPartial, right: GroupedPartial) -> GroupedPartial:
    """Overlapping key sets: rank the concatenated keys, then scatter
    each side into the union (each side's ids are distinct, so a fancy
    ``+=`` adds every group once)."""
    if not left.n_groups:
        return right
    if not right.n_groups:
        return left
    keys = [np.concatenate(pair) for pair in zip(left.keys, right.keys)]
    ids, n_groups = group_ids(keys)
    key_row = np.empty(n_groups, dtype=np.int64)
    key_row[ids] = np.arange(len(ids))  # any row of a group carries its key
    sides = (ids[: left.n_groups], ids[left.n_groups :])
    columns = {}
    for name, column in left.columns.items():
        arrays, wrap = _arrays([column, right.columns[name]])
        merged = np.zeros(
            (n_groups, *arrays[0].shape[1:]), dtype=np.result_type(*arrays)
        )
        for side, array in zip(sides, arrays):
            merged[side] += array
        columns[name] = wrap(merged)
    return GroupedPartial((k[key_row] for k in keys), columns)


def merge_states(target: dict, other: dict) -> dict:
    """Fold one morsel's value state into another, exactly.

    Supported leaf types and their merge operations (all exact,
    associative and commutative, so work stealing may deliver partials
    in any order):

    - ``int`` and (dyadic) ``float``: addition
    - :class:`ExactSum` and :class:`GroupedPartial`: exact addition
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
        elif isinstance(current, (ExactSum, GroupedPartial)):
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
