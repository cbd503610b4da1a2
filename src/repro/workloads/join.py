"""Join micro-benchmark driver (Section 5).

Three hash joins of increasing size: supplier x nation (small),
partsupp x supplier (medium), lineitem x orders (large), each followed
by a SUM() over probe-side columns.
"""

from __future__ import annotations

from repro.engines.base import JOIN_SIZES, Engine
from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport
from repro.workloads.sweep import profile_sweep


def run_join_sweep(
    db,
    engines,
    profiler: MicroArchProfiler,
    sizes=JOIN_SIZES,
    simd: bool = False,
) -> dict[str, dict[str, ProfileReport]]:
    """Profile every engine at every join size, cross-checking results."""
    return profile_sweep(
        engines, profiler, sizes,
        lambda engine, size: engine.run_join(db, size, simd=simd),
        "the {} join",
    )


def join_chain_stats(db, engine: Engine, size: str = "large"):
    """Measured hash-chain statistics of one join's build table
    (Section 6's chain-length discussion)."""
    return engine.run_join(db, size).details["chain_stats"]


def normalized_large_join(
    reports: dict[str, dict[str, ProfileReport]],
    base_engine: str = "Typer",
) -> dict[str, float]:
    """Figure 14 (right): large-join response normalised to Typer."""
    base = reports[base_engine]["large"].cycles
    return {name: per_size["large"].cycles / base for name, per_size in reports.items()}
