"""Regeneration of the multi-core experiments (Figures 27-30 and the
Section 10 headroom discussion)."""

from __future__ import annotations

from repro.engines import HPE_ENGINES
from repro.core.multicore import (
    THREAD_SWEEP,
    MulticoreModel,
    measured_speedup_curve,
)
from repro.analysis.result import FigureResult, breakdown_figure


def _multicore_tpch_reports(db, profiler, threads: int = 14):
    """Per-thread reports of the TPC-H queries at ``threads`` threads."""
    model = MulticoreModel(profiler)
    reports = {}
    for engine_cls in HPE_ENGINES:
        engine = engine_cls()
        per_query = {}
        for query_id in ("Q1", "Q6", "Q9", "Q18"):
            result = engine.run_tpch(db, query_id)
            per_query[query_id] = model.run(engine, result, threads).per_thread
        reports[engine.name] = per_query
    return reports


def fig27_multicore_tpch_cycles(db, profiler) -> FigureResult:
    """Figure 27: CPU cycles breakdown, TPC-H at 14 threads."""
    return breakdown_figure(
        "fig27", "CPU cycles breakdown, TPC-H at 14 threads (Typer / Tectorwise)",
        "cycles", "query", _multicore_tpch_reports(db, profiler),
        "Multi-core breakdowns track the single-core ones.",
    )


def fig28_multicore_tpch_stalls(db, profiler) -> FigureResult:
    """Figure 28: stall cycles breakdown, TPC-H at 14 threads."""
    return breakdown_figure(
        "fig28", "Stall cycles breakdown, TPC-H at 14 threads (Typer / Tectorwise)",
        "stalls", "query", _multicore_tpch_reports(db, profiler),
    )


def _bandwidth_curve_figure(db, profiler, figure_id: str, workload: str) -> FigureResult:
    model = MulticoreModel(profiler)
    title = {
        "projection": "Multi-core bandwidth, projection degree 4",
        "join": "Multi-core bandwidth, large join",
    }[workload]
    figure = FigureResult(
        figure_id, title, ("engine", "threads", "bandwidth_gbps", "max_gbps")
    )
    for engine_cls in HPE_ENGINES:
        engine = engine_cls()
        if workload == "projection":
            result = engine.run_projection(db, 4)
        else:
            result = engine.run_join(db, "large")
        curve = model.bandwidth_curve(engine, result)
        for threads in THREAD_SWEEP:
            run = model.run(engine, result, threads)
            figure.add_row(
                engine=engine.name,
                threads=threads,
                bandwidth_gbps=curve[threads],
                max_gbps=run.socket_bandwidth.max_gbps,
            )
        saturation = model.saturation_point(
            curve, figure.rows[-1]["max_gbps"]
        )
        figure.note(f"{engine.name} saturation point: {saturation} threads")
    return figure


def fig29_multicore_projection_bandwidth(db, profiler) -> FigureResult:
    """Figure 29: multi-core bandwidth of projection p4: Typer saturates
    the socket at ~8 threads, Tectorwise at ~12."""
    return _bandwidth_curve_figure(db, profiler, "fig29", "projection")


def fig30_multicore_join_bandwidth(db, profiler) -> FigureResult:
    """Figure 30: multi-core bandwidth of the large join: both engines
    leave the socket's random bandwidth underutilised."""
    figure = _bandwidth_curve_figure(db, profiler, "fig30", "join")
    figure.note(
        "Costly hash computations keep memory traffic too low to use the "
        "socket's random-access bandwidth."
    )
    return figure


def sec10_measured_scaling(db, profiler) -> FigureResult:
    """Measured vs modeled multi-core scaling (Figures 29/30 analogue).

    The cycle model predicts how far each engine scales before the
    socket's bandwidth roofs bite; the morsel-driven process executor
    lets us *measure* wall-clock scaling of the same queries on this
    machine.  Overlaying both separates what the model claims about the
    paper's Broadwell socket from what the executor achieves here.
    """
    import os

    worker_counts = tuple(
        n for n in (1, 2, 4) if n <= (os.cpu_count() or 1)
    ) or (1,)
    figure = FigureResult(
        "sec10-measured-scaling",
        "Measured process-executor speedup vs modeled thread scaling",
        ("engine", "query", "workers", "measured_speedup", "modeled_speedup"),
    )
    model = MulticoreModel(profiler)
    for engine_cls in HPE_ENGINES:
        engine = engine_cls()
        for query_id in ("Q1", "Q6"):
            result = engine.run_tpch(db, query_id)
            modeled = model.speedup_curve(engine, result, worker_counts)
            measured = measured_speedup_curve(
                db, engine, method="run_tpch", args=(query_id,),
                worker_counts=worker_counts,
            )
            for n_workers in worker_counts:
                figure.add_row(
                    engine=engine.name,
                    query=query_id,
                    workers=n_workers,
                    measured_speedup=round(
                        measured["workers"][n_workers]["speedup"], 3
                    ),
                    modeled_speedup=round(modeled[n_workers], 3),
                )
    figure.note(
        "Modeled speedups assume the paper's Broadwell socket; measured "
        "speedups are wall-clock on this machine's process pool, so the "
        "two converge only when the host is not oversubscribed."
    )
    figure.note(
        "Parallel results are bit-identical to single-process runs; only "
        "the wall-clock differs."
    )
    return figure


def sec10_multicore_headroom(db, profiler) -> FigureResult:
    """Section 10 text: SIMD and hyper-threading raise the large join's
    multi-core bandwidth, but it stays below the random-access roof."""
    model = MulticoreModel(profiler)
    typer, tectorwise = (engine() for engine in HPE_ENGINES)
    threads = profiler.spec.cores_per_socket
    figure = FigureResult(
        "sec10-headroom",
        "Large-join socket bandwidth headroom at 14 threads",
        ("engine", "variant", "bandwidth_gbps", "max_gbps"),
    )
    tw_scalar = tectorwise.run_join(db, "large")
    tw_simd = tectorwise.run_join(db, "large", simd=True)
    ty_result = typer.run_join(db, "large")
    cases = (
        ("Tectorwise", "scalar", tw_scalar, False),
        ("Tectorwise", "SIMD", tw_simd, False),
        ("Typer", "scalar", ty_result, False),
        ("Typer", "hyper-threading", ty_result, True),
        ("Tectorwise", "SIMD + hyper-threading", tw_simd, True),
    )
    for engine_name, variant, result, ht in cases:
        run = model.run(engine_name, result, threads, hyper_threading=ht)
        figure.add_row(
            engine=engine_name,
            variant=variant,
            bandwidth_gbps=run.bandwidth_gbps,
            max_gbps=run.socket_bandwidth.max_gbps,
        )
    figure.note(
        "Improvements are substantial but stay below the random-access "
        "roof: the compute/memory imbalance persists."
    )
    return figure
