"""Measured execution work, the input to the cycle-accounting model.

While a real VTune run samples hardware counters, this reproduction
measures the *work* a query execution performs -- retired instructions,
operation mix, bytes streamed, random-access patterns, branch outcome
statistics -- during actual engine execution, and feeds it to
:mod:`repro.core.cyclemodel` which plays the role of the Broadwell
micro-architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.ports import OpCounts


@dataclass
class BranchStream:
    """One static branch and the outcome statistics of its dynamic
    executions (e.g. one selection predicate's pass/fail stream)."""

    name: str
    count: float
    taken_fraction: float
    #: Optional measured misprediction rate (e.g. from the gshare trace
    #: simulator); when None the cycle model applies the analytic
    #: two-bit-counter rate to ``taken_fraction``.
    mispredict_rate: float | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("branch count must be non-negative")
        if not 0.0 <= self.taken_fraction <= 1.0:
            raise ValueError("taken_fraction must be in [0, 1]")
        if self.mispredict_rate is not None and not 0.0 <= self.mispredict_rate <= 1.0:
            raise ValueError("mispredict_rate must be in [0, 1]")


@dataclass
class SparseScanPattern:
    """A scan that touches a fraction of the lines of a contiguous
    region (e.g. a gather through a selection vector).

    ``density`` is the fraction of cache lines touched.  Low densities
    break the hardware prefetchers' streams; mid densities make them
    overshoot (Figure 21's "most confusing at 50%" effect).

    Gathers recorded through :meth:`WorkProfile.record_gather`
    additionally carry the integer line counts and the region size the
    density was derived from.  Those integers merge exactly across
    row-range morsels (cache lines never straddle an aligned morsel
    boundary), which is what makes merged sparse-scan accounting
    bit-identical to a single-shot run.
    """

    name: str
    bytes_touched: float
    density: float
    #: Integer accounting behind ``density`` (None for scans recorded
    #: directly via :meth:`WorkProfile.record_sparse_scan`).
    touched_lines: float | None = None
    total_lines: float | None = None
    region_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.bytes_touched < 0:
            raise ValueError("bytes_touched must be non-negative")
        if self.touched_lines is None:
            # Directly recorded scans must be non-empty; gathers may be
            # zero-count congruence placeholders (pruned at finalize).
            if not 0.0 < self.density <= 1.0:
                raise ValueError("density must be in (0, 1]")
        elif not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")


@dataclass
class RandomAccessPattern:
    """A batch of random accesses into one data structure.

    ``dependent`` marks pointer-chasing accesses (hash-chain walks)
    whose latencies serialise; independent probes overlap up to the
    line-fill-buffer limit.
    """

    name: str
    count: float
    working_set_bytes: float
    dependent: bool = False
    #: Optional memory-level-parallelism hint: SIMD gather instructions
    #: issue several probes at once (Section 8.2), raising the MLP the
    #: cycle model may assume for this pattern.
    mlp_hint: float | None = None

    def __post_init__(self) -> None:
        if self.count < 0 or self.working_set_bytes < 0:
            raise ValueError("count and working set must be non-negative")
        if self.mlp_hint is not None and self.mlp_hint < 1.0:
            raise ValueError("mlp_hint must be >= 1")


@dataclass
class WorkProfile:
    """Everything the profiler measured about one query execution.

    Engines build this while executing; sizes are totals over the whole
    run (single thread).  ``seq_*_bytes`` is DRAM-destined streaming
    traffic (table columns / pages); cache-resident intermediate
    traffic (Tectorwise's vectors) is tracked separately because it
    costs instructions and L1 cycles but no DRAM bandwidth.
    """

    label: str = ""
    tuples: int = 0
    instructions: float = 0.0
    alu_ops: float = 0.0
    load_ops: float = 0.0
    store_ops: float = 0.0
    simd_ops: float = 0.0
    hash_ops: float = 0.0
    #: Serially dependent long-latency operations: FP reduction
    #: (accumulator) chains and pointer-following interpreter dispatch.
    #: Each costs the chain-op latency (~an FP add).
    chain_ops: float = 0.0
    seq_read_bytes: float = 0.0
    seq_write_bytes: float = 0.0
    cached_read_bytes: float = 0.0
    cached_write_bytes: float = 0.0
    #: Number of load/store *events* moving the cached intermediate
    #: traffic; SIMD moves the same bytes in 8x fewer accesses, which
    #: is why vector materialisation stalls shrink under AVX-512.
    cached_access_events: float = 0.0
    random_patterns: list[RandomAccessPattern] = field(default_factory=list)
    sparse_scans: list[SparseScanPattern] = field(default_factory=list)
    branch_streams: list[BranchStream] = field(default_factory=list)
    #: Approximate bytes of hot code; drives Icache/Decoding pressure.
    code_footprint_bytes: float = 4096.0
    #: Effective instruction-level parallelism of the code: dependency-
    #: laden interpreter code cannot fill the 4-wide core; the gap is
    #: core-bound (Execution) stall time.  None means issue-width ILP.
    effective_ilp: float | None = None
    #: Deferred work units (see :meth:`record_pending`): exactly
    #: mergeable counts whose non-dyadic per-unit instruction costs the
    #: owning engine applies once, at finalization.  Empty on every
    #: published profile.
    pending: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording API used by the engines
    # ------------------------------------------------------------------
    def record_work(
        self,
        instructions: float = 0.0,
        alu: float = 0.0,
        loads: float = 0.0,
        stores: float = 0.0,
        simd: float = 0.0,
        hash_ops: float = 0.0,
        chain: float = 0.0,
    ) -> None:
        """Add instruction/operation counts."""
        if min(instructions, alu, loads, stores, simd, hash_ops, chain) < 0:
            raise ValueError("work counts must be non-negative")
        self.instructions += instructions
        self.alu_ops += alu
        self.load_ops += loads
        self.store_ops += stores
        self.simd_ops += simd
        self.hash_ops += hash_ops
        self.chain_ops += chain

    def record_sequential_read(self, n_bytes: float) -> None:
        """DRAM-destined streaming read traffic (column/page scans)."""
        if n_bytes < 0:
            raise ValueError("bytes must be non-negative")
        self.seq_read_bytes += n_bytes

    def record_sequential_write(self, n_bytes: float) -> None:
        """DRAM-destined streaming write traffic."""
        if n_bytes < 0:
            raise ValueError("bytes must be non-negative")
        self.seq_write_bytes += n_bytes

    def record_cached_traffic(
        self, read: float = 0.0, write: float = 0.0, access_bytes: float = 8.0
    ) -> None:
        """Cache-resident intermediate traffic (vectorized engines'
        vectors): costs instructions/L1 cycles, not DRAM bandwidth.
        ``access_bytes`` is the width of one access (8 for scalar
        loads/stores, 64 for AVX-512)."""
        if read < 0 or write < 0:
            raise ValueError("bytes must be non-negative")
        if access_bytes <= 0:
            raise ValueError("access_bytes must be positive")
        self.cached_read_bytes += read
        self.cached_write_bytes += write
        self.cached_access_events += (read + write) / access_bytes

    def record_random(
        self,
        name: str,
        count: float,
        working_set_bytes: float,
        dependent: bool = False,
        mlp_hint: float | None = None,
    ) -> None:
        """A batch of random accesses into one structure."""
        self.random_patterns.append(
            RandomAccessPattern(name, count, working_set_bytes, dependent, mlp_hint)
        )

    def record_sparse_scan(self, name: str, bytes_touched: float, density: float) -> None:
        """A gather/strided scan touching ``density`` of a region's lines."""
        self.sparse_scans.append(SparseScanPattern(name, bytes_touched, density))

    def record_branch_stream(
        self,
        name: str,
        count: float,
        taken_fraction: float,
        mispredict_rate: float | None = None,
    ) -> None:
        self.branch_streams.append(
            BranchStream(name, count, taken_fraction, mispredict_rate)
        )

    def record_branch_outcomes(self, name: str, outcomes: np.ndarray) -> None:
        """Record a branch from its actual boolean outcome stream."""
        count = len(outcomes)
        taken = float(np.count_nonzero(outcomes)) / count if count else 0.0
        self.record_branch_stream(name, count, taken)

    def record_gather(
        self, name: str, region_bytes: float, touched_lines: int, total_lines: int
    ) -> None:
        """A gather through a selection vector, in integer cache-line
        counts.  ``bytes_touched``/``density`` follow the same formula
        as :func:`repro.engines.base.line_density`-based recording, but
        the integers are kept so morsel partials merge exactly."""
        if total_lines > 0 and touched_lines > 0:
            density = min(1.0, touched_lines / total_lines)
        elif touched_lines > 0:
            density = 1.0
        else:
            density = 0.0
        self.sparse_scans.append(
            SparseScanPattern(
                name,
                density * region_bytes,
                density,
                touched_lines=touched_lines,
                total_lines=total_lines,
                region_bytes=region_bytes,
            )
        )

    def record_pending(self, key: str, amount: float) -> None:
        """Defer work whose per-unit cost is not exactly representable.

        Morsel partials accumulate the (dyadic, exactly mergeable)
        ``amount`` here; the engine's finalizer converts the merged
        total into instruction counts once, so any partitioning yields
        the same rounding as a single-shot run.
        """
        if amount < 0:
            raise ValueError("pending amounts must be non-negative")
        self.pending[key] = self.pending.get(key, 0.0) + amount

    def drop_negligible(self) -> None:
        """Remove entries below one dynamic event.

        Morsel partials record every stream unconditionally (including
        zero-count ones) so partial lists stay congruent and merge
        positionally; finalization prunes the entries the engines'
        single-shot guards would have skipped.
        """
        self.random_patterns = [
            pattern for pattern in self.random_patterns if pattern.count >= 1.0
        ]
        self.branch_streams = [
            stream for stream in self.branch_streams if stream.count >= 1.0
        ]
        self.sparse_scans = [
            scan for scan in self.sparse_scans if scan.bytes_touched > 0.0
        ]

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def ops(self) -> OpCounts:
        return OpCounts(
            alu_ops=self.alu_ops,
            load_ops=self.load_ops,
            store_ops=self.store_ops,
            simd_ops=self.simd_ops,
            hash_ops=self.hash_ops,
        )

    @property
    def seq_bytes(self) -> float:
        return self.seq_read_bytes + self.seq_write_bytes

    @property
    def sparse_bytes(self) -> float:
        return sum(scan.bytes_touched for scan in self.sparse_scans)

    @property
    def streamed_bytes(self) -> float:
        """All DRAM-destined streaming traffic (dense + sparse scans)."""
        return self.seq_bytes + self.sparse_bytes

    @property
    def random_access_count(self) -> float:
        return sum(pattern.count for pattern in self.random_patterns)

    @property
    def random_bytes(self) -> float:
        """Memory traffic of the random accesses (one line each,
        counting only accesses whose working set exceeds the L1)."""
        return self.random_access_count * 64.0

    def instructions_per_tuple(self) -> float:
        return self.instructions / self.tuples if self.tuples else 0.0

    def _fold_scalars(self, other: "WorkProfile") -> None:
        """The part of both merges that is not a pattern list: exact
        addition of every scalar count and of the pending amounts, the
        larger code footprint and the smaller effective ILP."""
        self.tuples += other.tuples
        self.instructions += other.instructions
        self.alu_ops += other.alu_ops
        self.load_ops += other.load_ops
        self.store_ops += other.store_ops
        self.simd_ops += other.simd_ops
        self.hash_ops += other.hash_ops
        self.chain_ops += other.chain_ops
        self.seq_read_bytes += other.seq_read_bytes
        self.seq_write_bytes += other.seq_write_bytes
        self.cached_read_bytes += other.cached_read_bytes
        self.cached_write_bytes += other.cached_write_bytes
        self.cached_access_events += other.cached_access_events
        for key, amount in other.pending.items():
            self.pending[key] = self.pending.get(key, 0.0) + amount
        self.code_footprint_bytes = max(
            self.code_footprint_bytes, other.code_footprint_bytes
        )
        if other.effective_ilp is not None:
            self.effective_ilp = (
                other.effective_ilp
                if self.effective_ilp is None
                else min(self.effective_ilp, other.effective_ilp)
            )

    def merge(self, other: "WorkProfile") -> None:
        """Fold another profile (e.g. one operator's) into this one."""
        self._fold_scalars(other)
        self.random_patterns.extend(other.random_patterns)
        self.sparse_scans.extend(other.sparse_scans)
        self.branch_streams.extend(other.branch_streams)

    # ------------------------------------------------------------------
    # Morsel partials (repro.core.parallel)
    # ------------------------------------------------------------------
    def merge_partial(self, other: "WorkProfile") -> None:
        """Fold another *morsel partial* of the same execution into this
        one, exactly.

        Unlike :meth:`merge` (which concatenates operator profiles),
        partials of one execution record the *same* sequence of
        patterns/streams -- engines record unconditionally in morsel
        mode, keeping zero-count placeholders -- so the lists combine
        positionally and every scalar merges by exact addition (engines
        only record dyadic quantities per morsel; non-dyadic costs ride
        in :attr:`pending`).  The result is bit-identical to recording
        the union of the morsels' rows in one shot, for any
        partitioning and any merge order.
        """
        for name in ("random_patterns", "sparse_scans", "branch_streams"):
            ours, theirs = getattr(self, name), getattr(other, name)
            if len(ours) != len(theirs):
                raise ValueError(
                    f"partial profiles are not congruent: "
                    f"{len(ours)} vs {len(theirs)} {name}"
                )
        self.random_patterns = [
            _merge_random(a, b)
            for a, b in zip(self.random_patterns, other.random_patterns)
        ]
        self.sparse_scans = [
            _merge_sparse(a, b)
            for a, b in zip(self.sparse_scans, other.sparse_scans)
        ]
        self.branch_streams = [
            _merge_branch(a, b)
            for a, b in zip(self.branch_streams, other.branch_streams)
        ]
        self._fold_scalars(other)

    def scaled(self, factor: float) -> "WorkProfile":
        """A copy with all volume quantities scaled (e.g. per-thread
        share of a multi-core run)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return WorkProfile(
            label=self.label,
            tuples=int(self.tuples * factor),
            instructions=self.instructions * factor,
            alu_ops=self.alu_ops * factor,
            load_ops=self.load_ops * factor,
            store_ops=self.store_ops * factor,
            simd_ops=self.simd_ops * factor,
            hash_ops=self.hash_ops * factor,
            chain_ops=self.chain_ops * factor,
            seq_read_bytes=self.seq_read_bytes * factor,
            seq_write_bytes=self.seq_write_bytes * factor,
            cached_read_bytes=self.cached_read_bytes * factor,
            cached_write_bytes=self.cached_write_bytes * factor,
            cached_access_events=self.cached_access_events * factor,
            random_patterns=[
                RandomAccessPattern(
                    pattern.name,
                    pattern.count * factor,
                    pattern.working_set_bytes,
                    pattern.dependent,
                    pattern.mlp_hint,
                )
                for pattern in self.random_patterns
            ],
            sparse_scans=[
                SparseScanPattern(
                    scan.name,
                    scan.bytes_touched * factor,
                    scan.density,
                    touched_lines=None if scan.touched_lines is None
                    else scan.touched_lines * factor,
                    total_lines=None if scan.total_lines is None
                    else scan.total_lines * factor,
                    region_bytes=None if scan.region_bytes is None
                    else scan.region_bytes * factor,
                )
                for scan in self.sparse_scans
            ],
            branch_streams=[
                BranchStream(
                    stream.name,
                    stream.count * factor,
                    stream.taken_fraction,
                    stream.mispredict_rate,
                )
                for stream in self.branch_streams
            ],
            code_footprint_bytes=self.code_footprint_bytes,
            effective_ilp=self.effective_ilp,
            pending={key: amount * factor for key, amount in self.pending.items()},
        )

    def copy(self) -> "WorkProfile":
        """A private copy in which every quantity keeps its value and its
        type: scaling by the int 1 leaves int counts int, where a float
        factor would turn them into floats."""
        return self.scaled(factor=1)

    def with_sequential_scaled(self, factor: float) -> "WorkProfile":
        """A copy whose *sequential read* traffic is scaled by
        ``factor`` while every other quantity -- instruction mix,
        writes, gathers, random patterns, branch streams -- is
        untouched.

        ``factor < 1`` models the same operator streaming compressed
        column widths instead of full-width values
        (:mod:`repro.storage.encoding`): the work stays identical, only
        the bytes the scan drags through the hierarchy shrink.  This is
        the opt-in side channel behind the ``sec8-compression`` figure;
        recorded profiles themselves always account logical widths,
        which is what keeps encoded and raw execution bit-identical.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        clone = self.copy()
        clone.seq_read_bytes = self.seq_read_bytes * factor
        return clone


def _merge_random(
    a: RandomAccessPattern, b: RandomAccessPattern
) -> RandomAccessPattern:
    if a.name != b.name:
        raise ValueError(f"partial pattern mismatch: {a.name!r} vs {b.name!r}")
    primary = a if a.count >= b.count else b
    if (
        a.count > 0
        and b.count > 0
        and (a.working_set_bytes, a.dependent, a.mlp_hint)
        != (b.working_set_bytes, b.dependent, b.mlp_hint)
    ):
        raise ValueError(f"partial pattern {a.name!r} parameters diverge")
    return RandomAccessPattern(
        a.name,
        a.count + b.count,
        primary.working_set_bytes,
        primary.dependent,
        primary.mlp_hint,
    )


def _merge_sparse(a: SparseScanPattern, b: SparseScanPattern) -> SparseScanPattern:
    if a.name != b.name:
        raise ValueError(f"partial sparse scan mismatch: {a.name!r} vs {b.name!r}")
    if a.touched_lines is None or b.touched_lines is None:
        raise ValueError(
            f"sparse scan {a.name!r} lacks line counts; morsel partials "
            f"must record gathers via record_gather()"
        )
    touched = a.touched_lines + b.touched_lines
    total = a.total_lines + b.total_lines
    region = a.region_bytes + b.region_bytes
    if total > 0 and touched > 0:
        density = min(1.0, touched / total)
    elif touched > 0:
        density = 1.0
    else:
        density = 0.0
    return SparseScanPattern(
        a.name,
        density * region,
        density,
        touched_lines=touched,
        total_lines=total,
        region_bytes=region,
    )


def _merge_branch(a: BranchStream, b: BranchStream) -> BranchStream:
    """Exact merge of one static branch's per-morsel outcome statistics.

    Contract: across the morsels of one execution a stream's
    ``taken_fraction`` is either a constant (analytic rates) or derived
    as ``takens / count`` from actual outcomes; in the latter case the
    integer taken count is recovered exactly from the stored fraction
    (the rounding error of ``count * (takens / count)`` is far below
    0.5 for any realistic count), so merged fractions equal the
    single-shot ones bit-for-bit.
    """
    if a.name != b.name:
        raise ValueError(f"partial branch mismatch: {a.name!r} vs {b.name!r}")
    count = a.count + b.count
    if a.count == 0:
        return BranchStream(a.name, count, b.taken_fraction, b.mispredict_rate)
    if b.count == 0:
        return BranchStream(a.name, count, a.taken_fraction, a.mispredict_rate)
    if a.taken_fraction == b.taken_fraction:
        taken = a.taken_fraction
    else:
        takens = round(a.count * a.taken_fraction) + round(b.count * b.taken_fraction)
        taken = takens / count
    if a.mispredict_rate == b.mispredict_rate:
        rate = a.mispredict_rate
    else:
        weights = (
            (a.mispredict_rate or 0.0) * a.count + (b.mispredict_rate or 0.0) * b.count
        )
        rate = weights / count
    return BranchStream(a.name, count, taken, rate)
