"""Three-level data-cache hierarchy with configurable prefetchers.

Replays a byte-address stream through L1D -> L2 -> L3 (inclusive on
Broadwell) and accounts the load-to-use latency of every access, the
same structure the paper's VTune memory-access analysis observes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cache import SetAssociativeCache
from repro.hardware.prefetcher import (
    NextLinePrefetcher,
    PrefetcherConfig,
    StreamerPrefetcher,
)
from repro.hardware.spec import ServerSpec


@dataclass
class HierarchyStats:
    """Aggregate statistics for a replayed access stream."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    memory_accesses: int = 0
    total_latency_cycles: float = 0.0
    lines_from_memory: int = 0

    @property
    def l1_miss_rate(self) -> float:
        return 1.0 - self.l1_hits / self.accesses if self.accesses else 0.0

    @property
    def memory_miss_rate(self) -> float:
        """Fraction of accesses served from DRAM."""
        return self.memory_accesses / self.accesses if self.accesses else 0.0

    @property
    def avg_latency_cycles(self) -> float:
        return self.total_latency_cycles / self.accesses if self.accesses else 0.0


class CacheHierarchy:
    """L1D/L2/L3 hierarchy for one core.

    ``access(addr)`` returns the load-to-use latency in cycles for that
    access and updates per-level statistics.  Prefetchers observe the
    demand stream at their level and install lines into their cache
    (and, for L2 prefetchers on an inclusive hierarchy, into L3 as
    well, matching where the hardware fills prefetched lines).
    """

    def __init__(self, spec: ServerSpec, config: PrefetcherConfig | None = None):
        self.spec = spec
        self.config = config or PrefetcherConfig.all_enabled()
        self.l1 = SetAssociativeCache(spec.l1d)
        self.l2 = SetAssociativeCache(spec.l2)
        self.l3 = SetAssociativeCache(spec.l3)
        self.stats = HierarchyStats()
        self._l1_prefetchers = []
        self._l2_prefetchers = []
        if self.config.l1_next_line:
            self._l1_prefetchers.append(NextLinePrefetcher(self.l1))
        if self.config.l1_streamer:
            self._l1_prefetchers.append(StreamerPrefetcher(self.l1, degree=2))
        if self.config.l2_next_line:
            self._l2_prefetchers.append(NextLinePrefetcher(self.l2))
        if self.config.l2_streamer:
            self._l2_prefetchers.append(StreamerPrefetcher(self.l2, degree=8))

    def access(self, addr: int) -> float:
        """Demand load of ``addr``; returns load-to-use latency in cycles."""
        spec = self.spec
        line = self.l1.line_of(addr)
        self.stats.accesses += 1
        latency = spec.l1_access_cycles

        l1_hit = self.l1.access_line(line)
        for prefetcher in self._l1_prefetchers:
            prefetcher.on_access(line, l1_hit)
        if l1_hit:
            self.stats.l1_hits += 1
            self.stats.total_latency_cycles += latency
            return latency

        latency += spec.l1d.miss_latency_cycles
        l2_hit = self.l2.access_line(line)
        for prefetcher in self._l2_prefetchers:
            prefetcher.on_access(line, l2_hit)
        if l2_hit:
            self.stats.l2_hits += 1
            self.stats.total_latency_cycles += latency
            return latency

        latency += spec.l2.miss_latency_cycles
        if self.l3.access_line(line):
            self.stats.l3_hits += 1
            self.stats.total_latency_cycles += latency
            return latency

        latency += spec.l3.miss_latency_cycles
        self.stats.memory_accesses += 1
        self.stats.lines_from_memory += 1
        self.stats.total_latency_cycles += latency
        return latency

    def replay(self, addresses) -> HierarchyStats:
        """Replay a full address stream through :meth:`access`, one
        event at a time; returns the aggregate stats."""
        for addr in addresses:
            self.access(int(addr))
        return self.stats

    def prefetches_issued(self) -> int:
        return sum(
            prefetcher.issued
            for prefetcher in (*self._l1_prefetchers, *self._l2_prefetchers)
        )

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
        self.l3.reset()
        self.stats = HierarchyStats()
        for prefetcher in (*self._l1_prefetchers, *self._l2_prefetchers):
            prefetcher.reset()
