"""Planner-driven morsel pruning over zone maps.

The paper shows OLAP scans are memory-bandwidth-bound, so the biggest
win is not touching data at all.  This module turns the per-chunk
statistics of :mod:`repro.storage.zonemap` into executable pruning
decisions: a conjunctive predicate summary (extracted from the logical
plan by :mod:`repro.sql.lower`, or derived canonically from the bound
call here) is classified chunk-by-chunk *before* dispatch, and chunks
no row of which can pass are never scanned -- by the thread executor
or by :mod:`repro.core.parallel`'s worker pool alike.

Bit-identity
------------
The repository's merge contract says a morsel partition must merge to
the *bit-identical* single-shot result -- values, tuple counts, work
profiles, modeled cycles.  Pruning keeps that contract by construction
rather than by re-deriving profiles:

1. **Verdicts are theorems.**  A chunk is pruned only when a prefix of
   its atoms is ALL_TRUE followed by one ALL_FALSE atom (the
   ``first_false`` index ``j``).  Zone-map verdicts are exact (see
   :mod:`repro.storage.zonemap`), so on a pruned chunk every engine's
   per-atom masks are *known constants*: all-ones for atoms before
   ``j``, all-zeros at ``j``, and dead (zero surviving candidates) after.

2. **Constant-mask substitution.**  While a pruned chunk executes,
   :func:`scan_outcome` tells :func:`repro.engines.scan.predicate_mask`
   those constants, so the engine runs its full recording path -- branch
   streams, gathers, byte accounting -- without reading the column data.
   Because the constants equal what the data would have produced, the
   recorded partial is bit-identical to a real scan of the chunk.

3. **Folded partials.**  On a pruned chunk the recorded partial is a
   pure function of ``(j, block length, position signature)`` -- every
   engine records translation-invariant quantities over 64-aligned
   ranges (the one exception, DBMS R's page-granular scan bytes, is
   captured by :meth:`Engine.morsel_position_signature`).  So one
   representative executes per key, and the ``k`` blocks sharing the
   key fold into *one* partial by repeated doubling through the exact
   merge: O(log k) copies and merges per distinct block shape, not one
   per block.  The merge is exact, associative and commutative, so the
   fold is bit-identical to merging the ``k`` copies one by one.

Plans are pure functions of immutable zone maps and partitioning, so
:func:`plan_for` memoizes them per ``(database identity, atoms)``.

False positives only: a chunk the statistics cannot decide is scanned
normally, so pruning can waste a scan but never drop a row.
"""

from __future__ import annotations

import bisect
import contextvars
from dataclasses import dataclass

import numpy as np

from repro import memo
from repro.obs import trace
from repro.storage.zonemap import ALL_FALSE, ALL_TRUE, CHUNK_ROWS, MIXED
from repro.tpch.schema import (
    LINEITEM_SCANS,
    PredicateAtom,
    scan_columns,
    selection_atoms,
)

#: Rows per synthesized pruned block.  Matches the process executor's
#: claim size; pruned runs split into blocks of this size (aligned to
#: the run start) so equal-length blocks share one memoized partial.
PRUNED_BLOCK_ROWS = 1 << 16


# ----------------------------------------------------------------------
# Predicate summaries
# ----------------------------------------------------------------------
def atoms_for(db, method: str, kwargs) -> tuple[PredicateAtom, ...]:
    """Canonical conjunctive summary of one bound engine call.

    The hand-wired scans' atoms are read from
    :data:`repro.tpch.schema.LINEITEM_SCANS`, the declaration the
    engines' ``predicate_mask`` calls read too; the selection's come
    from its resolved thresholds (:func:`~repro.tpch.schema.selection_atoms`).
    Methods without morsel-local predicates (projection, joins,
    group-bys -- their filters are not lineitem-range predicates)
    return no atoms and are never pruned.
    """
    if method == "run_selection":
        from repro.engines.base import resolve_selection_cached

        kwargs = dict(kwargs)
        try:
            _, thresholds = resolve_selection_cached(
                db, kwargs.get("selectivity"), kwargs.get("thresholds")
            )
        except (ValueError, KeyError):
            return ()  # invalid parameters surface through normal execution
        return selection_atoms(thresholds)
    scan = LINEITEM_SCANS.get(method)
    return scan.atoms if scan is not None else ()


# ----------------------------------------------------------------------
# The prune plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrunePlan:
    """Chunk-level pruning decisions for one execution.

    ``kept_segments`` are the coalesced row ranges that must be scanned;
    ``pruned_runs`` are coalesced ``(lo, hi, first_false)`` ranges whose
    partials are synthesized.  Both tile ``[0, n_rows)`` exactly, with
    every boundary a multiple of :data:`~repro.storage.zonemap.CHUNK_ROWS`
    (except ``n_rows`` itself), so any sub-partitioning stays
    morsel-aligned.
    """

    atoms: tuple[PredicateAtom, ...]
    chunk_rows: int
    n_rows: int
    kept_segments: tuple[tuple[int, int], ...]
    pruned_runs: tuple[tuple[int, int, int], ...]
    chunks_total: int
    chunks_pruned: int
    #: Partition-level outcome when the table is range-partitioned
    #: (:mod:`repro.rollup.partition`): how many non-empty partitions
    #: exist and how many were dropped whole (every covered chunk
    #: pruned).  Zero/zero on unpartitioned tables.
    partitions_total: int = 0
    partitions_pruned: int = 0

    @property
    def nothing_pruned(self) -> bool:
        return not self.pruned_runs

    @property
    def kept_rows(self) -> int:
        return sum(hi - lo for lo, hi in self.kept_segments)

    @property
    def rows_pruned(self) -> int:
        return sum(hi - lo for lo, hi, _ in self.pruned_runs)

    @property
    def pruned_blocks(self) -> int:
        """Morsels synthesized for the pruned runs (see :func:`_blocks`)."""
        return sum(-(-(hi - lo) // PRUNED_BLOCK_ROWS) for lo, hi, _ in self.pruned_runs)

    def summary(self, db=None, method: str | None = None) -> dict:
        """Pruning decision record for result details / serve stats."""
        out = {
            "morsels_scanned": self.chunks_total - self.chunks_pruned,
            "morsels_pruned": self.chunks_pruned,
            "rows": self.n_rows,
            "rows_pruned": self.rows_pruned,
            "chunk_rows": self.chunk_rows,
        }
        if self.partitions_total:
            out["partitions_total"] = self.partitions_total
            out["partitions_pruned"] = self.partitions_pruned
        if db is not None and method is not None:
            columns = scan_columns(method)
            if columns:
                table = db.table("lineitem")
                itemsize = sum(
                    table.column(name).itemsize for name in dict.fromkeys(columns)
                )
                out["bytes_pruned"] = int(self.rows_pruned * itemsize)
        return out


def compute_prune_plan(
    db, atoms: tuple[PredicateAtom, ...], chunk_rows: int = CHUNK_ROWS
) -> PrunePlan | None:
    """Classify every zone-map chunk of lineitem against ``atoms``.

    A chunk is pruned iff walking the atoms in order meets an ALL_FALSE
    verdict while every earlier atom was ALL_TRUE -- the first MIXED
    atom stops the walk (beyond it the engines' masks depend on data the
    statistics cannot see).  Returns None when there is nothing to
    classify.

    On a range-partitioned table (:mod:`repro.rollup.partition`) a
    partition-level pre-pass runs first: chunks wholly inside a
    partition the partition min/max statistics decide inherit that
    verdict, and the per-chunk zone map is consulted -- or built at all
    -- only for atoms with undecided chunks left.  Partition verdicts
    are coarsenings of chunk verdicts (same exact interval logic over a
    superset of rows), so the composition never weakens a decision.
    """
    if not atoms:
        return None
    table = db.table("lineitem")
    n_rows = table.n_rows
    if n_rows <= 0:
        return None
    partitioning = getattr(table, "partitioning", None)
    verdict_rows = []
    for atom in atoms:
        pre = None
        if partitioning is not None and atom.column == partitioning.column:
            pre = partitioning.chunk_verdicts(
                atom.op, atom.threshold, chunk_rows, n_rows
            )
            if not (pre == MIXED).any():
                verdict_rows.append(pre)
                continue
        from_zone_map = table.zone_map(atom.column).classify(
            atom.op, atom.threshold, table.encoding(atom.column)
        )
        if pre is not None:
            from_zone_map = np.where(pre == MIXED, from_zone_map, pre)
        verdict_rows.append(from_zone_map)
    verdicts = np.stack(verdict_rows)
    n_chunks = verdicts.shape[1]
    is_false = verdicts == ALL_FALSE
    prefix_true = np.cumprod(verdicts == ALL_TRUE, axis=0).astype(bool)
    eligible = is_false.copy()
    eligible[1:] &= prefix_true[:-1]
    prunable = eligible.any(axis=0)
    first_false = np.argmax(eligible, axis=0)

    pruned_runs: list[tuple[int, int, int]] = []
    kept_segments: list[tuple[int, int]] = []
    for index in range(n_chunks):
        lo = index * chunk_rows
        hi = min(lo + chunk_rows, n_rows)
        if prunable[index]:
            j = int(first_false[index])
            if pruned_runs and pruned_runs[-1][1] == lo and pruned_runs[-1][2] == j:
                pruned_runs[-1] = (pruned_runs[-1][0], hi, j)
            else:
                pruned_runs.append((lo, hi, j))
        else:
            if kept_segments and kept_segments[-1][1] == lo:
                kept_segments[-1] = (kept_segments[-1][0], hi)
            else:
                kept_segments.append((lo, hi))
    partitions_total = partitions_pruned = 0
    if partitioning is not None:
        for p in range(partitioning.n_partitions):
            lo, hi = partitioning.partition_range(p)
            if hi <= lo:
                continue
            partitions_total += 1
            covered = prunable[lo // chunk_rows: -(-hi // chunk_rows)]
            if covered.size and covered.all():
                partitions_pruned += 1
    return PrunePlan(
        atoms=tuple(atoms),
        chunk_rows=chunk_rows,
        n_rows=n_rows,
        kept_segments=tuple(kept_segments),
        pruned_runs=tuple(pruned_runs),
        chunks_total=n_chunks,
        chunks_pruned=int(prunable.sum()),
        partitions_total=partitions_total,
        partitions_pruned=partitions_pruned,
    )


#: Plans by ``(database identity, atoms)``.  Its own cache, so one-use
#: plans of fresh ad hoc literals never evict shared build sides.
_PLANS = memo.shared("prune", 64)


def plan_for(db, method: str, kwargs, executor: str):
    """The prune stage of :func:`repro.core.parallel.run_call`:
    ``(plan, summary)`` for one bound call.  ``plan`` is None when
    execution should not prune (no prunable predicate summary, or
    nothing pruned); ``summary`` is :meth:`PrunePlan.summary`, built
    only when something reads it -- the result details of a pruned
    call, or the span when tracing -- and None otherwise.

    Emits a ``prune`` span whenever the call has atoms, so the decision
    -- including "kept everything" -- is visible in traces.  Plans are
    memoized; the span is emitted on a hit too.
    """
    atoms = atoms_for(db, method, kwargs)
    if not atoms:
        return None, None
    summary = None
    with trace.span("prune", executor=executor):
        plan = _PLANS.get_or_build(
            (db.identity, atoms), lambda: compute_prune_plan(db, atoms)
        )
        tracing = trace.active()
        if plan is not None and (tracing or not plan.nothing_pruned):
            summary = plan.summary(db, method)
            if tracing:
                trace.annotate(**summary)
    if plan is None or plan.nothing_pruned:
        return None, None
    return plan, summary


# ----------------------------------------------------------------------
# Constant-mask substitution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PruneOutcomes:
    """Known predicate outcomes for one pruned block's execution."""

    lo: int
    hi: int
    outcomes: dict  # (column, op, float(threshold)) -> bool


_ACTIVE: contextvars.ContextVar[_PruneOutcomes | None] = contextvars.ContextVar(
    "prune_outcomes", default=None
)


def scan_outcome(column: str, op: str, threshold, lo: int, hi: int) -> bool | None:
    """The known constant outcome of a predicate over ``[lo, hi)``, or
    None when no pruned block is executing (the overwhelmingly common
    case: one contextvar read) or the call does not match an atom of the
    active block exactly -- range included, so whole-table evaluations
    inside a pruned block still read the data."""
    active = _ACTIVE.get()
    if active is None or lo != active.lo or hi != active.hi:
        return None
    return active.outcomes.get((column, op, float(threshold)))


# ----------------------------------------------------------------------
# Synthesized partials
# ----------------------------------------------------------------------
def _fold(entry, k: int):
    """``k`` copies of the pruned partial ``entry`` merged into one, by
    repeated doubling through the exact merge: O(log k) copies and
    merges.  Merging is exact, associative and commutative, so this is
    bit-identical to merging ``k`` separate copies."""
    from repro.engines.morsel import merge_worker_partials

    folded = None
    power = entry.copy()
    while True:
        if k & 1:
            piece = power if k == 1 else power.copy()
            folded = piece if folded is None else merge_worker_partials([folded, piece])
        k >>= 1
        if not k:
            return folded
        power = merge_worker_partials([power, power.copy()])


def _blocks(lo: int, hi: int):
    while lo < hi:
        end = min(lo + PRUNED_BLOCK_ROWS, hi)
        yield lo, end
        lo = end


def pruned_partials(engine, db, method: str, kwargs, plan: PrunePlan) -> list:
    """Synthesize the partial results of every pruned block, one folded
    partial per ``(first_false, block length, position signature)``.

    One representative block per key executes under constant-mask
    substitution; the ``k`` blocks sharing the key fold into one
    partial (:func:`_fold`) whose row range spans them.  The list holds
    :attr:`PrunePlan.pruned_blocks` morsels in fewer partials.
    """
    kwargs = dict(kwargs)
    keyed: dict = {}  # key -> (representative, [blocks])
    for run_lo, run_hi, j in plan.pruned_runs:
        outcomes = {
            atom.key(): index < j for index, atom in enumerate(plan.atoms)
        }
        for lo, hi in _blocks(run_lo, run_hi):
            signature = engine.morsel_position_signature(db, method, kwargs, lo, hi)
            key = (j, hi - lo, signature)
            if key not in keyed:
                token = _ACTIVE.set(_PruneOutcomes(lo, hi, outcomes))
                try:
                    entry = getattr(engine, method)(db, row_range=(lo, hi), **kwargs)
                finally:
                    _ACTIVE.reset(token)
                keyed[key] = (entry, [])
            keyed[key][1].append((lo, hi))
    partials = []
    for entry, blocks in keyed.values():
        folded = _fold(entry, len(blocks))
        folded.details["row_range"] = (blocks[0][0], blocks[-1][1])
        partials.append(folded)
    return partials


def scan_segments(engine, db, method: str, kwargs, segments) -> list:
    """Inline dispatch: run each row range on the calling thread, one
    ``morsel`` span per range (no-ops when untraced), mirroring the
    process executor's shape."""
    runner = getattr(engine, method)
    partials = []
    for lo, hi in segments:
        with trace.span("morsel", row_range=(lo, hi), stolen=False):
            partials.append(runner(db, row_range=(lo, hi), **kwargs))
    return partials


def execute_pruned(engine, db, method: str, kwargs, plan: PrunePlan):
    """Inline execution under a given plan: the scan stage of
    :func:`repro.core.parallel.run_call` (scan the kept segments for
    real, synthesize the pruned ones, merge exactly)."""
    from repro.core.parallel import run_scan

    return run_scan(
        db, engine, method, tuple(dict(kwargs).items()), plan, plan.summary(db, method)
    )


# ----------------------------------------------------------------------
# Virtual-row translation (process executor)
# ----------------------------------------------------------------------
def kept_offsets(segments) -> list[int]:
    """Virtual start offset of each kept segment: the ledger hands
    workers ranges over the *compacted* kept row space, and these prefix
    sums anchor the translation back to actual rows."""
    offsets = []
    total = 0
    for lo, hi in segments:
        offsets.append(total)
        total += hi - lo
    return offsets


def translate_claim(segments, offsets, vlo: int, vhi: int):
    """Map one virtual claim ``[vlo, vhi)`` to actual row ranges.

    A claim that spans a kept-segment boundary splits, so every returned
    range is contiguous in the table and morsel-aligned (segment starts
    are chunk boundaries; virtual claims are 64-aligned)."""
    pieces = []
    while vlo < vhi:
        index = bisect.bisect_right(offsets, vlo) - 1
        seg_lo, seg_hi = segments[index]
        seg_end = offsets[index] + (seg_hi - seg_lo)
        take = min(vhi, seg_end)
        actual_lo = seg_lo + (vlo - offsets[index])
        pieces.append((actual_lo, actual_lo + (take - vlo)))
        vlo = take
    return pieces
