"""Hardware substrate: machine specs, caches, prefetchers, branch
prediction, memory system, execution ports and TMAM cycle containers."""

from repro.hardware.spec import (
    BROADWELL,
    CACHE_LINE_BYTES,
    GB,
    KB,
    MB,
    PAGE_BYTES,
    SKYLAKE,
    BandwidthSpec,
    CacheSpec,
    PortSpec,
    ServerSpec,
)
from repro.hardware.cache import CacheStats, SetAssociativeCache
from repro.hardware.prefetcher import (
    NextLinePrefetcher,
    PrefetcherConfig,
    StreamerPrefetcher,
)
from repro.hardware.hierarchy import CacheHierarchy, HierarchyStats
from repro.hardware.branch import (
    GSharePredictor,
    two_bit_mispredict_rate,
    two_bit_stationary_distribution,
)
from repro.hardware.memory import (
    BandwidthReport,
    LatencyReport,
    MemoryLatencyChecker,
    MemorySystem,
)
from repro.hardware.ports import ExecutionPorts, OpCounts
from repro.hardware.tmam import COMPONENTS, STALL_COMPONENTS, CycleBreakdown

__all__ = [
    "BROADWELL",
    "SKYLAKE",
    "CACHE_LINE_BYTES",
    "PAGE_BYTES",
    "KB",
    "MB",
    "GB",
    "BandwidthReport",
    "BandwidthSpec",
    "CacheHierarchy",
    "CacheSpec",
    "CacheStats",
    "COMPONENTS",
    "CycleBreakdown",
    "ExecutionPorts",
    "GSharePredictor",
    "HierarchyStats",
    "LatencyReport",
    "MemoryLatencyChecker",
    "MemorySystem",
    "NextLinePrefetcher",
    "OpCounts",
    "PortSpec",
    "PrefetcherConfig",
    "ServerSpec",
    "SetAssociativeCache",
    "STALL_COMPONENTS",
    "StreamerPrefetcher",
    "two_bit_mispredict_rate",
    "two_bit_stationary_distribution",
]
