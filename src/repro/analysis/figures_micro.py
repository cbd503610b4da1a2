"""Regeneration of Table 1 and the micro-benchmark figures (1-14).

Every function takes the TPC-H database and a profiler and returns a
:class:`~repro.analysis.result.FigureResult` whose rows mirror the
bars/series of the corresponding paper figure.
"""

from __future__ import annotations

from repro.engines import ALL_ENGINES, COMMERCIAL_ENGINES, HPE_ENGINES
from repro.hardware.memory import MemoryLatencyChecker
from repro.workloads import (
    hash_chain_comparison,
    normalized_large_join,
    normalized_response_times,
    run_join_sweep,
    run_projection_sweep,
    run_selection_sweep,
)
from repro.analysis.result import FigureResult, breakdown_figure


def table1_server_parameters(db, profiler) -> FigureResult:
    """Table 1: Broadwell server parameters, with the bandwidth and
    latency rows measured through the MLC-style tool."""
    checker = MemoryLatencyChecker(profiler.spec)
    figure = FigureResult(
        "table1", "Broadwell server parameters", ("parameter", "value")
    )
    for parameter, value in checker.table1_rows().items():
        figure.add_row(parameter=parameter, value=value)
    return figure


# ----------------------------------------------------------------------
# Projection (Figures 1-6)
# ----------------------------------------------------------------------
def fig01_projection_commercial_cycles(db, profiler) -> FigureResult:
    """Figure 1: CPU cycles breakdown for projection, DBMS R and C."""
    return breakdown_figure(
        "fig01", "CPU cycles breakdown for projection (DBMS R / DBMS C)",
        "cycles", "degree",
        run_projection_sweep(db, [engine() for engine in COMMERCIAL_ENGINES], profiler),
    )


def fig02_projection_commercial_stalls(db, profiler) -> FigureResult:
    """Figure 2: stall cycles breakdown for projection, DBMS R and C."""
    return breakdown_figure(
        "fig02", "Stall cycles breakdown for projection (DBMS R / DBMS C)",
        "stalls", "degree",
        run_projection_sweep(db, [engine() for engine in COMMERCIAL_ENGINES], profiler),
    )


def fig03_projection_hpe_cycles(db, profiler) -> FigureResult:
    """Figure 3: CPU cycles breakdown for projection, Typer/Tectorwise."""
    return breakdown_figure(
        "fig03", "CPU cycles breakdown for projection (Typer / Tectorwise)",
        "cycles", "degree",
        run_projection_sweep(db, [engine() for engine in HPE_ENGINES], profiler),
    )


def fig04_projection_hpe_stalls(db, profiler) -> FigureResult:
    """Figure 4: stall cycles breakdown for projection, Typer/Tectorwise."""
    return breakdown_figure(
        "fig04", "Stall cycles breakdown for projection (Typer / Tectorwise)",
        "stalls", "degree",
        run_projection_sweep(db, [engine() for engine in HPE_ENGINES], profiler),
    )


def fig05_projection_bandwidth(db, profiler) -> FigureResult:
    """Figure 5: single-core sequential bandwidth during projection."""
    reports = run_projection_sweep(db, [engine() for engine in HPE_ENGINES], profiler)
    figure = FigureResult(
        "fig05",
        "Single-core sequential bandwidth, projection (Typer / Tectorwise)",
        ("engine", "degree", "bandwidth_gbps", "max_gbps", "utilization"),
    )
    for engine, per_degree in reports.items():
        for degree, report in per_degree.items():
            figure.add_row(
                engine=engine,
                degree=degree,
                bandwidth_gbps=report.bandwidth.gbps,
                max_gbps=report.bandwidth.max_gbps,
                utilization=report.bandwidth.utilization,
            )
    figure.note("Typer approaches the per-core roof from degree two onwards.")
    return figure


def fig06_projection_response_time(db, profiler) -> FigureResult:
    """Figure 6: normalised response time, projection p4, four systems."""
    reports = run_projection_sweep(db, [engine() for engine in ALL_ENGINES], profiler)
    normalized = normalized_response_times(reports, degree=4)
    figure = FigureResult(
        "fig06",
        "Normalized response time (vs Typer), projection degree 4",
        ("engine", "normalized_response", "response_ms", "share_retiring"),
    )
    for engine, per_degree in reports.items():
        report = per_degree[4]
        figure.add_row(
            engine=engine,
            normalized_response=normalized[engine],
            response_ms=report.response_time_ms,
            share_retiring=report.cycle_shares()["retiring"],
        )
    figure.note(
        "DBMS R is orders of magnitude slower than Typer/Tectorwise; "
        "DBMS C sits an order of magnitude above the high-performance engines."
    )
    return figure


# ----------------------------------------------------------------------
# Selection (Figures 7-10 + the Section 4 bandwidth text numbers)
# ----------------------------------------------------------------------
def fig07_selection_commercial_cycles(db, profiler) -> FigureResult:
    """Figure 7: CPU cycles breakdown for selection, DBMS R and C."""
    return breakdown_figure(
        "fig07", "CPU cycles breakdown for selection (DBMS R / DBMS C)",
        "cycles", "selectivity",
        run_selection_sweep(db, [engine() for engine in COMMERCIAL_ENGINES], profiler),
    )


def fig08_selection_commercial_stalls(db, profiler) -> FigureResult:
    """Figure 8: stall cycles breakdown for selection, DBMS R and C."""
    return breakdown_figure(
        "fig08", "Stall cycles breakdown for selection (DBMS R / DBMS C)",
        "stalls", "selectivity",
        run_selection_sweep(db, [engine() for engine in COMMERCIAL_ENGINES], profiler),
    )


def fig09_selection_hpe_cycles(db, profiler) -> FigureResult:
    """Figure 9: CPU cycles breakdown for selection, Typer/Tectorwise."""
    return breakdown_figure(
        "fig09", "CPU cycles breakdown for selection (Typer / Tectorwise)",
        "cycles", "selectivity",
        run_selection_sweep(db, [engine() for engine in HPE_ENGINES], profiler),
        "Both engines stall the most at 50% selectivity.",
    )


def fig10_selection_hpe_stalls(db, profiler) -> FigureResult:
    """Figure 10: stall cycles breakdown for selection, Typer/Tectorwise,
    plus the Section 4 bandwidth-utilisation text numbers."""
    return breakdown_figure(
        "fig10", "Stall cycles breakdown for selection (Typer / Tectorwise)",
        "stalls", "selectivity",
        run_selection_sweep(db, [engine() for engine in HPE_ENGINES], profiler),
        "Branch mispredictions dominate and peak at 50%; bandwidth stays "
        "well below the sequential roof (Section 4 text).",
        bandwidth=True,
    )


# ----------------------------------------------------------------------
# Join (Figures 11-14)
# ----------------------------------------------------------------------
def fig11_join_commercial_cycles(db, profiler) -> FigureResult:
    """Figure 11: CPU cycles breakdown for joins, DBMS R and C."""
    return breakdown_figure(
        "fig11", "CPU cycles breakdown for join (DBMS R / DBMS C)",
        "cycles", "size",
        run_join_sweep(db, [engine() for engine in COMMERCIAL_ENGINES], profiler),
        "Breakdowns stay similar across join sizes: the interpretation "
        "footprint overshadows the micro-architectural behaviour.",
    )


def fig12_join_hpe_cycles(db, profiler) -> FigureResult:
    """Figure 12: CPU cycles breakdown for joins, Typer/Tectorwise."""
    return breakdown_figure(
        "fig12", "CPU cycles breakdown for join (Typer / Tectorwise)",
        "cycles", "size",
        run_join_sweep(db, [engine() for engine in HPE_ENGINES], profiler),
        "Stall ratio grows with join size.",
    )


def fig13_join_hpe_stalls(db, profiler) -> FigureResult:
    """Figure 13: stall cycles breakdown for joins, Typer/Tectorwise."""
    return breakdown_figure(
        "fig13", "Stall cycles breakdown for join (Typer / Tectorwise)",
        "stalls", "size",
        run_join_sweep(db, [engine() for engine in HPE_ENGINES], profiler),
        "Dcache stalls dominate the large join; Execution stalls are a "
        "significant share for small/medium (hash computations).",
    )


def fig14_join_bandwidth_response(db, profiler) -> FigureResult:
    """Figure 14: large-join random bandwidth (left) and normalised
    response time across the four systems (right)."""
    reports = run_join_sweep(
        db, [engine() for engine in ALL_ENGINES], profiler, sizes=("large",)
    )
    normalized = normalized_large_join(reports)
    figure = FigureResult(
        "fig14",
        "Large join: random-access bandwidth and normalized response time",
        ("engine", "bandwidth_gbps", "max_gbps", "normalized_response", "share_retiring"),
    )
    for engine, per_size in reports.items():
        report = per_size["large"]
        figure.add_row(
            engine=engine,
            bandwidth_gbps=report.bandwidth.gbps,
            max_gbps=report.bandwidth.max_gbps,
            normalized_response=normalized[engine],
            share_retiring=report.cycle_shares()["retiring"],
        )
    figure.note(
        "Typer/Tectorwise leave the single-core random bandwidth "
        "underutilised; the commercial systems pay for their instruction "
        "footprints with high Retiring time."
    )
    return figure


def sec6_hash_chain_stats(db, profiler) -> FigureResult:
    """Section 6 text: hash-chain statistics, join vs group-by table."""
    comparison = hash_chain_comparison(db)
    figure = FigureResult(
        "sec6-chains",
        "Hash chain statistics: join vs group-by",
        ("table", "mean", "std", "max", "load_factor"),
    )
    for label, stats in (("hash join", comparison.join), ("group by", comparison.groupby)):
        figure.add_row(
            table=label,
            mean=stats.mean,
            std=stats.std,
            max=stats.max,
            load_factor=stats.load_factor,
        )
    figure.note(
        "Group-by chains are more irregular than join chains "
        f"(confirmed: {comparison.groupby_more_irregular})."
    )
    return figure
