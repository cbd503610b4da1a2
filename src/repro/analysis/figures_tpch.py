"""Regeneration of the TPC-H and predication figures (15-21, Section 7
text numbers)."""

from __future__ import annotations

from repro.engines import HPE_ENGINES, TectorwiseEngine, TyperEngine
from repro.workloads import (
    run_predicated_q6,
    run_predication_comparison,
    run_selection_sweep,
    run_tpch,
)
from repro.analysis.result import (
    TIME_COLUMNS,
    FigureResult,
    breakdown_figure,
    time_breakdown_row,
)


# ----------------------------------------------------------------------
# TPC-H (Figures 15-16)
# ----------------------------------------------------------------------
def fig15_tpch_cycles(db, profiler) -> FigureResult:
    """Figure 15: CPU cycles breakdown, TPC-H queries, Typer/Tectorwise."""
    return breakdown_figure(
        "fig15", "CPU cycles breakdown for TPC-H (Typer / Tectorwise)",
        "cycles", "query",
        run_tpch(db, [engine() for engine in HPE_ENGINES], profiler),
        "Q1 has the highest Retiring ratio on both engines; Q9 has the "
        "lowest for Typer and Q6 the lowest for Tectorwise.",
    )


def fig16_tpch_stalls(db, profiler) -> FigureResult:
    """Figure 16: stall cycles breakdown, TPC-H queries, plus the
    Section 6 bandwidth observations."""
    return breakdown_figure(
        "fig16", "Stall cycles breakdown for TPC-H (Typer / Tectorwise)",
        "stalls", "query",
        run_tpch(db, [engine() for engine in HPE_ENGINES], profiler),
        "Q1 is Execution-heavy, Q6 Dcache-bound on Typer but branch-bound "
        "on Tectorwise, Q9/Q18 Dcache-dominated with visible branch stalls.",
        bandwidth=True,
    )


# ----------------------------------------------------------------------
# Predication (Figures 17-21, Section 7)
# ----------------------------------------------------------------------
def _predication_figure(db, profiler, engine, figure_id: str, kind: str) -> FigureResult:
    comparison = run_predication_comparison(db, engine, profiler)
    columns = ("variant", "selectivity", "response_ms", *TIME_COLUMNS)
    title = f"{kind} breakdown, branched vs branch-free selection ({engine.name})"
    figure = FigureResult(figure_id, title, columns)
    for selectivity, variants in comparison.items():
        for variant, report in variants.items():
            row = time_breakdown_row(report, variant=variant, selectivity=selectivity)
            row.pop("engine", None)
            figure.rows.append({column: row.get(column) for column in columns})
    return figure


def fig17_predication_typer_response(db, profiler) -> FigureResult:
    """Figure 17: Typer response time, branched vs branch-free."""
    figure = _predication_figure(db, profiler, TyperEngine(), "fig17", "Response time")
    figure.note(
        "Predication hurts Typer at 10% selectivity and helps at 50/90%."
    )
    return figure


def fig18_predication_typer_stalls(db, profiler) -> FigureResult:
    """Figure 18: Typer stall time, branched vs branch-free."""
    figure = _predication_figure(db, profiler, TyperEngine(), "fig18", "Stall time")
    figure.note("Predication eliminates the branch-misprediction stalls.")
    return figure


def fig19_predication_tectorwise_response(db, profiler) -> FigureResult:
    """Figure 19: Tectorwise response time, branched vs branch-free."""
    figure = _predication_figure(
        db, profiler, TectorwiseEngine(), "fig19", "Response time"
    )
    figure.note("Predication helps Tectorwise at every selectivity.")
    return figure


def fig20_predication_tectorwise_stalls(db, profiler) -> FigureResult:
    """Figure 20: Tectorwise stall time, branched vs branch-free."""
    figure = _predication_figure(
        db, profiler, TectorwiseEngine(), "fig20", "Stall time"
    )
    figure.note(
        "With branches gone, the selection query becomes Dcache- and "
        "Execution-bound like the projection."
    )
    return figure


def fig21_predication_bandwidth(db, profiler) -> FigureResult:
    """Figure 21: single-core bandwidth of the predicated selection."""
    figure = FigureResult(
        "fig21",
        "Single-core bandwidth, predicated selection (Typer / Tectorwise)",
        ("engine", "selectivity", "variant", "bandwidth_gbps", "max_gbps"),
    )
    for engine_cls in HPE_ENGINES:
        engine = engine_cls()
        comparison = run_predication_comparison(db, engine, profiler)
        for selectivity, variants in comparison.items():
            for variant, report in variants.items():
                figure.add_row(
                    engine=engine.name,
                    selectivity=selectivity,
                    variant=variant,
                    bandwidth_gbps=report.bandwidth.gbps,
                    max_gbps=report.bandwidth.max_gbps,
                )
    figure.note(
        "Predication raises bandwidth for both engines; Typer stays high "
        "and stable, Tectorwise peaks at 50% (prefetcher overshoot)."
    )
    return figure


def sec7_predicated_q6(db, profiler) -> FigureResult:
    """Section 7 text: predicated TPC-H Q6 response/bandwidth changes."""
    figure = FigureResult(
        "sec7-q6",
        "Predicated TPC-H Q6 (Typer / Tectorwise)",
        ("engine", "variant", "response_ms", "bandwidth_gbps", "response_change"),
    )
    for engine_cls in HPE_ENGINES:
        engine = engine_cls()
        reports = run_predicated_q6(db, engine, profiler)
        base = reports["branched"].response_time_ms
        for variant, report in reports.items():
            figure.add_row(
                engine=engine.name,
                variant=variant,
                response_ms=report.response_time_ms,
                bandwidth_gbps=report.bandwidth.gbps,
                response_change=report.response_time_ms / base - 1.0,
            )
    figure.note(
        "Paper: predication cuts Q6 by 11% (Typer) and 52% (Tectorwise), "
        "raising bandwidth 4.7->6.9 and 1->4.7 GB/s respectively."
    )
    return figure


def selection_branched_bandwidth(db, profiler) -> FigureResult:
    """Section 4/7 text: branched selection bandwidth (Typer 3/5/5,
    Tectorwise 2.5/3/3 GB/s)."""
    reports = run_selection_sweep(db, [engine() for engine in HPE_ENGINES], profiler)
    figure = FigureResult(
        "sec4-bandwidth",
        "Branched selection bandwidth",
        ("engine", "selectivity", "bandwidth_gbps"),
    )
    for engine, per_sel in reports.items():
        for selectivity, report in per_sel.items():
            figure.add_row(
                engine=engine,
                selectivity=selectivity,
                bandwidth_gbps=report.bandwidth.gbps,
            )
    return figure
