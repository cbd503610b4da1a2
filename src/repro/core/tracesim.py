"""Sampled trace-driven simulation.

The analytic cycle model uses effective parameters (prefetcher
coverage, random-access hit mixes, misprediction rates).  This module
validates those parameters the way a micro-benchmark would on real
hardware: it generates address/branch traces and replays them through
the *structural* models -- set-associative caches with the four
prefetchers (:mod:`repro.hardware.hierarchy`) and a gshare predictor
(:mod:`repro.hardware.branch`).

Traces are sampled (tens of thousands of events), following the
standard sampled-simulation methodology: rates, not absolute counts,
carry over to full-size runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.branch import GSharePredictor
from repro.hardware.hierarchy import CacheHierarchy, HierarchyStats
from repro.hardware.prefetcher import PrefetcherConfig
from repro.hardware.spec import CACHE_LINE_BYTES, ServerSpec


def sequential_trace(n_accesses: int, stride_bytes: int = 8, start: int = 0) -> np.ndarray:
    """Addresses of a dense forward scan (a column read)."""
    if n_accesses < 0 or stride_bytes <= 0:
        raise ValueError("n_accesses must be >= 0, stride positive")
    return start + stride_bytes * np.arange(n_accesses, dtype=np.int64)


def random_trace(
    n_accesses: int, working_set_bytes: int, seed: int = 7, align: int = 8
) -> np.ndarray:
    """Uniform random addresses into a working set (hash probes)."""
    if working_set_bytes < align:
        raise ValueError("working set must hold at least one element")
    rng = np.random.default_rng(seed)
    slots = working_set_bytes // align
    return rng.integers(0, slots, n_accesses) * align


def sparse_trace(
    n_lines: int, density: float, stride_bytes: int = CACHE_LINE_BYTES, seed: int = 7
) -> np.ndarray:
    """One access per touched line of a scan that skips lines with
    probability 1-density (a gather through a selection vector)."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    touched = np.flatnonzero(rng.random(n_lines) < density)
    return touched * stride_bytes


@dataclass(frozen=True)
class TraceResult:
    """Replay outcome of one address trace."""

    stats: HierarchyStats
    prefetches_issued: int

    @property
    def demand_memory_rate(self) -> float:
        """Fraction of accesses served by DRAM on demand (not hidden)."""
        return self.stats.memory_miss_rate

    @property
    def avg_latency_cycles(self) -> float:
        return self.stats.avg_latency_cycles


class TraceSimulator:
    """Replays traces against a configured cache hierarchy."""

    def __init__(self, spec: ServerSpec, config: PrefetcherConfig | None = None):
        self.spec = spec
        self.config = config or PrefetcherConfig.all_enabled()

    def replay(self, addresses: np.ndarray) -> TraceResult:
        hierarchy = CacheHierarchy(self.spec, self.config)
        hierarchy.replay(addresses)
        return TraceResult(
            stats=hierarchy.stats,
            prefetches_issued=hierarchy.prefetches_issued(),
        )

    def sequential_coverage(
        self, n_accesses: int = 40_000, stride_bytes: int = 8
    ) -> float:
        """Measured fraction of a scan's would-be DRAM demand misses
        that the configured prefetchers hide.

        Compared against
        :meth:`repro.hardware.prefetcher.PrefetcherConfig.sequential_coverage`
        in the tests.  Note the structural simulator installs
        prefetches instantly, so it measures *coverage* (misses
        removed), not the prefetcher-lag residual the analytic model
        adds on top.
        """
        trace = sequential_trace(n_accesses, stride_bytes)
        baseline = TraceSimulator(self.spec, PrefetcherConfig.all_disabled()).replay(trace)
        configured = self.replay(trace)
        base_misses = baseline.stats.memory_accesses
        if not base_misses:
            return 0.0
        hidden = base_misses - configured.stats.memory_accesses
        return max(0.0, hidden / base_misses)

    def random_latency(
        self, working_set_bytes: int, n_accesses: int = 20_000, seed: int = 7
    ) -> float:
        """Average measured load-to-use latency of uniform random
        probes into a working set (validates
        :meth:`repro.core.cyclemodel.CycleModel.random_latency_cycles`).

        The hierarchy is warmed with a sweep of the working set (up to a
        sampling cap) plus a random pass, so cache-resident working sets
        measure steady-state hit latencies rather than cold misses.
        """
        lines = min(working_set_bytes // CACHE_LINE_BYTES, 150_000)
        sweep = sequential_trace(int(lines), CACHE_LINE_BYTES)
        warmup = random_trace(n_accesses, working_set_bytes, seed=seed + 1)
        probes = random_trace(n_accesses, working_set_bytes, seed=seed)
        hierarchy = CacheHierarchy(self.spec, self.config)
        hierarchy.replay(sweep)
        hierarchy.replay(warmup)
        hierarchy.stats = HierarchyStats()
        hierarchy.replay(probes)
        return hierarchy.stats.avg_latency_cycles


@dataclass(frozen=True)
class ProfileTraceEstimate:
    """Trace-replayed estimate of a work profile's memory behaviour."""

    avg_latency_cycles: float
    memory_miss_rate: float
    l1_hit_rate: float
    sample_accesses: int


def simulate_profile(
    profile,
    spec: ServerSpec,
    config: PrefetcherConfig | None = None,
    sample_accesses: int = 20_000,
    seed: int = 23,
) -> ProfileTraceEstimate:
    """Replay a *sampled* address trace constructed from a work
    profile's access patterns through the structural cache hierarchy.

    The trace interleaves the profile's streams proportionally to their
    access counts: 8-byte sequential loads for the streamed bytes,
    density-thinned line touches for sparse scans, and uniform probes
    into each random pattern's working set (placed in disjoint address
    regions).  This gives a second, structural estimate of the memory
    behaviour the analytic model computes in closed form -- the
    sampled-simulation methodology measurement studies use to sanity-
    check their counters.
    """
    rng = np.random.default_rng(seed)
    streams: list[tuple[float, object]] = []
    warm_regions: list[tuple[int, float]] = []
    region_base = 0
    region_stride = 1 << 36  # keep stream regions disjoint

    seq_count = profile.seq_bytes / 8.0
    if seq_count:
        def sequential_stream(base=region_base):
            position = 0
            while True:
                yield base + position
                position += 8
        streams.append((seq_count, sequential_stream()))
        region_base += region_stride

    for scan in profile.sparse_scans:
        lines = scan.bytes_touched / CACHE_LINE_BYTES
        if lines < 1:
            continue

        def sparse_stream(base=region_base, density=scan.density):
            line = 0
            while True:
                line += max(1, int(round(1.0 / density)))
                yield base + line * CACHE_LINE_BYTES
        streams.append((lines, sparse_stream()))
        region_base += region_stride

    for pattern in profile.random_patterns:
        if pattern.count < 1 or pattern.working_set_bytes < 8:
            continue
        warm_regions.append((region_base, pattern.working_set_bytes))

        def random_stream(base=region_base, ws=int(pattern.working_set_bytes)):
            slots = max(1, ws // 8)
            while True:
                yield base + int(rng.integers(0, slots)) * 8
        streams.append((pattern.count, random_stream()))
        region_base += region_stride

    if not streams:
        return ProfileTraceEstimate(0.0, 0.0, 0.0, 0)

    weights = np.array([count for count, _ in streams], dtype=float)
    weights /= weights.sum()
    choices = rng.choice(len(streams), size=sample_accesses, p=weights)
    hierarchy = CacheHierarchy(spec, config or PrefetcherConfig.all_enabled())
    # Warm each random working set (capped sweep) so cache-resident
    # structures measure steady-state hits rather than cold misses.
    for base, working_set in warm_regions:
        lines = min(int(working_set) // CACHE_LINE_BYTES, 150_000)
        hierarchy.replay(base + CACHE_LINE_BYTES * np.arange(lines, dtype=np.int64))
    hierarchy.stats = HierarchyStats()
    # Materialise the interleaved trace first (the stream generators are
    # cheap), then replay it in one call.
    addresses = np.fromiter(
        (next(streams[index][1]) for index in choices),
        dtype=np.int64,
        count=len(choices),
    )
    hierarchy.replay(addresses)
    stats = hierarchy.stats
    return ProfileTraceEstimate(
        avg_latency_cycles=stats.avg_latency_cycles,
        memory_miss_rate=stats.memory_miss_rate,
        l1_hit_rate=stats.l1_hits / stats.accesses if stats.accesses else 0.0,
        sample_accesses=stats.accesses,
    )


def gshare_mispredict_rate(
    outcomes: np.ndarray, table_bits: int = 12, history_bits: int = 8, pc: int = 0x40_00
) -> float:
    """Misprediction rate of a gshare predictor on an outcome stream
    (validates the analytic two-bit rate on real predicate streams)."""
    predictor = GSharePredictor(table_bits=table_bits, history_bits=history_bits)
    return predictor.run(pc, np.asarray(outcomes, dtype=bool))


def bernoulli_outcomes(n: int, p_taken: float, seed: int = 11) -> np.ndarray:
    """A Bernoulli branch outcome stream (selection predicate model)."""
    if not 0.0 <= p_taken <= 1.0:
        raise ValueError("p_taken must be in [0, 1]")
    rng = np.random.default_rng(seed)
    return rng.random(n) < p_taken
