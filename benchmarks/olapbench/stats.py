"""Arithmetic shared by the harness: percentile bands, geometric mean, spread.

Kept free of numpy so the parent process (which only spawns children
and adds up their numbers) never imports it.
"""

from __future__ import annotations

import math
import statistics


def band_mean(values, p: float, half_width: float = 5.0) -> float:
    """Mean of the samples ranked between the ``p - half_width``-th and
    ``p + half_width``-th percentile: a percentile that does not jump
    when it falls in the gap between two latency classes (a fixed class
    mix makes the latency distribution a set of clusters, and a plain
    sample quantile at a cluster boundary is the midpoint of two
    extremes)."""
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("percentile of an empty sample")
    low = min(count - 1, max(0, math.floor(count * (p - half_width) / 100.0)))
    high = max(low + 1, min(count, math.ceil(count * (p + half_width) / 100.0)))
    return sum(ordered[low:high]) / (high - low)


def low_mid_mean(values, low: float = 0.10, high: float = 0.60) -> float:
    """Mean of the samples ranked between the ``low`` and ``high``
    quantile: the level of a sample with a one-sided tail.  Timings of a
    fixed kernel beside a running workload pile up at the uncontended
    time and tail off to the right (a second client holding the
    interpreter lock, a stolen time slice); their median sits where the
    pile thins out and moves from run to run, while the mean of the pile
    itself does not."""
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("level of an empty sample")
    first = min(count - 1, int(count * low))
    last = max(first + 1, int(count * high))
    return sum(ordered[first:last]) / (last - first)


def geomean(values) -> float:
    """Geometric mean; every value must be positive."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def iqr_share(values) -> float | None:
    """Distance between the first and third quartile as a share of the
    median -- the run-to-run spread the builder's contract uses.  None
    when fewer than two runs exist (no spread can be stated)."""
    values = list(values)
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` as a share of ``base``
    (negative = improved), for a metric whose good direction is
    ``better`` ("lower" or "higher")."""
    if not base:
        return math.inf if new != base else 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def latency_summary(samples_ms: dict) -> dict:
    """End-to-end latency numbers from per-class latency samples.

    ``samples_ms`` maps class name -> list of op latencies in ms.  The
    geometric mean is taken over per-class medians (TPC-H power style:
    a 2x win on any one class moves it equally)."""
    everything = [ms for values in samples_ms.values() for ms in values]
    class_medians = {
        name: statistics.median(values) for name, values in samples_ms.items() if values
    }
    return {
        "latency_ms_p50": band_mean(everything, 50),
        "latency_ms_p90": band_mean(everything, 90),
        "geomean_ms": geomean(class_medians.values()),
        "samples": len(everything),
        "class_median_ms": class_medians,
    }
