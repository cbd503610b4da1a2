"""repro.obs -- tracing and metrics for the query service.

Three small pieces:

- :mod:`repro.obs.trace` -- per-query span trees behind a contextvar
  fast path (near-zero cost when no trace is active);
- :mod:`repro.obs.metrics` -- counters / gauges / fixed-bucket
  histograms with picklable snapshots, exact cross-process merging and
  Prometheus text exposition;
- :mod:`repro.obs.slowlog` -- a bounded log of the slowest queries
  with their span trees.

All timing flows through :mod:`repro.obs.clock` so tests can inject a
:class:`~repro.obs.clock.FakeClock` and pin bit-deterministic traces.
"""

from repro.obs.clock import Clock, DEFAULT_CLOCK, FakeClock, MonotonicClock
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    REGISTRY,
    histogram_quantiles,
    merge_snapshots,
    parse_exposition,
    render_snapshot,
)
from repro.obs.slowlog import SlowLog
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    active,
    annotate,
    deactivate,
    record,
    span,
)

__all__ = [
    "Clock",
    "DEFAULT_CLOCK",
    "DEFAULT_LATENCY_BUCKETS",
    "FakeClock",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_SPAN",
    "REGISTRY",
    "SlowLog",
    "Span",
    "Tracer",
    "activate",
    "active",
    "annotate",
    "deactivate",
    "histogram_quantiles",
    "merge_snapshots",
    "parse_exposition",
    "record",
    "render_snapshot",
    "span",
]
