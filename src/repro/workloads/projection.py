"""Projection micro-benchmark driver (Section 3).

SUM() over one to four lineitem columns (l_extendedprice, l_discount,
l_tax, l_quantity), profiled per engine and degree.
"""

from __future__ import annotations

from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport
from repro.workloads.sweep import profile_sweep

DEGREES = (1, 2, 3, 4)


def run_projection_sweep(
    db,
    engines,
    profiler: MicroArchProfiler,
    degrees=DEGREES,
    simd: bool = False,
) -> dict[str, dict[int, ProfileReport]]:
    """Profile every engine at every projectivity degree.

    Returns ``{engine name: {degree: ProfileReport}}``; engine result
    values are cross-checked to be identical before returning.
    """
    return profile_sweep(
        engines, profiler, degrees,
        lambda engine, degree: engine.run_projection(db, degree, simd=simd),
        "projection p{}",
    )


def normalized_response_times(
    reports: dict[str, dict[int, ProfileReport]],
    degree: int = 4,
    base_engine: str = "Typer",
) -> dict[str, float]:
    """Figure 6: response time at ``degree`` normalised to one engine."""
    base = reports[base_engine][degree].cycles
    return {
        name: per_degree[degree].cycles / base
        for name, per_degree in reports.items()
    }
