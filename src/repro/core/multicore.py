"""Multi-core execution model (Section 10).

OLAP operators are data-parallel: the paper runs the same query on N
threads of one socket over a partitioned input.  The model scales one
measured single-thread execution: each thread processes 1/N of the
work, the socket bandwidth roofs are shared, and the per-thread cycle
breakdown plus the aggregate socket bandwidth reproduce Figures 27-30.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.engines.base import Engine, QueryResult
from repro.core.bandwidth import BandwidthUsage
from repro.core.cyclemodel import ExecutionContext
from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport

#: Thread counts of Figures 29/30 (up to 14, the cores per socket).
THREAD_SWEEP = (1, 4, 8, 12, 14)


@dataclass(frozen=True)
class MulticoreRun:
    """One multi-threaded execution: per-thread profile plus the
    aggregate socket bandwidth."""

    threads: int
    per_thread: ProfileReport
    socket_bandwidth: BandwidthUsage

    @property
    def response_time_ms(self) -> float:
        """Threads run the partitions concurrently; the response time
        is one thread's time."""
        return self.per_thread.response_time_ms

    @property
    def bandwidth_gbps(self) -> float:
        return self.socket_bandwidth.gbps


class MulticoreModel:
    """Scales single-thread executions across the cores of a socket."""

    def __init__(self, profiler: MicroArchProfiler):
        self.profiler = profiler

    def run(
        self,
        engine: Engine | str,
        result: QueryResult,
        threads: int,
        hyper_threading: bool = False,
    ) -> MulticoreRun:
        """Model ``result``'s workload partitioned over ``threads``."""
        spec = self.profiler.spec
        if not 1 <= threads <= spec.cores_per_socket:
            raise ValueError(
                f"threads must be in [1, {spec.cores_per_socket}] (one socket)"
            )
        context = ExecutionContext(threads=threads, hyper_threading=hyper_threading)
        share = result.work.scaled(1.0 / threads)
        breakdown = self.profiler.model.breakdown(share, context)
        bandwidth = self.profiler.estimator.usage(share, breakdown, context)
        engine_name = engine if isinstance(engine, str) else engine.name
        per_thread = ProfileReport(
            engine=engine_name,
            workload=result.workload,
            breakdown=breakdown,
            bandwidth=bandwidth,
            work=share,
            spec=spec,
            threads=threads,
            cached=bool(result.details.get("cached", False)),
        )
        socket = self.profiler.estimator.multicore_usage(share, context)
        return MulticoreRun(threads=threads, per_thread=per_thread, socket_bandwidth=socket)

    def bandwidth_curve(
        self,
        engine: Engine | str,
        result: QueryResult,
        thread_counts=THREAD_SWEEP,
        hyper_threading: bool = False,
    ) -> dict[int, float]:
        """Socket bandwidth (GB/s) at each thread count (Figures 29/30)."""
        return {
            threads: self.run(engine, result, threads, hyper_threading).bandwidth_gbps
            for threads in thread_counts
        }

    @staticmethod
    def saturation_point(curve: dict[int, float], max_gbps: float, threshold: float = 0.9) -> int | None:
        """Smallest thread count reaching ``threshold`` of the roof, or
        None if the curve never saturates (the join case, Figure 30)."""
        for threads in sorted(curve):
            if curve[threads] >= threshold * max_gbps:
                return threads
        return None

    def speedup_curve(
        self,
        engine: Engine | str,
        result: QueryResult,
        thread_counts=THREAD_SWEEP,
    ) -> dict[int, float]:
        """Response-time speedup over the single-thread run."""
        base = self.run(engine, result, 1).response_time_ms
        return {
            threads: base / self.run(engine, result, threads).response_time_ms
            for threads in thread_counts
        }


def measured_speedup_curve(
    db,
    engine: Engine,
    method: str = "run_q1",
    args: tuple = (),
    kwargs: dict | None = None,
    worker_counts=(1, 2, 4),
    repeats: int = 3,
) -> dict:
    """Measured wall-clock scaling of the morsel-parallel executor.

    Where :meth:`MulticoreModel.speedup_curve` predicts scaling from
    the cycle model (work split N ways, shared bandwidth roofs), this
    actually runs the query on :class:`repro.core.parallel.WorkerPool`
    at each worker count and times it, so model and reality can be
    overlaid (the measured analogue of Figures 29/30).

    Timing uses the best of ``repeats`` runs after one warm-up (the
    warm-up also populates per-worker shared structures such as hash
    tables).  The single-process baseline times the runner underneath
    the execution cache's wrapper so repeats measure execution, not
    memo lookups.  Returns
    ``{"baseline_s", "workers": {n: {"seconds", "speedup"}}}``.
    """
    from repro.core.parallel import WorkerPool, normalized_call

    kwargs = dict(kwargs or {})
    runner_name, items = normalized_call(engine, method, args, kwargs)
    runner = inspect.unwrap(getattr(type(engine), runner_name))
    runner_kwargs = dict(items)

    runner(engine, db, **runner_kwargs)  # warm-up
    baseline = min(
        _timed(lambda: runner(engine, db, **runner_kwargs)) for _ in range(repeats)
    )

    curve: dict[int, dict[str, float]] = {}
    for n_workers in worker_counts:
        with WorkerPool(db, n_workers=n_workers) as pool:
            pool.run_query(engine, method, *args, **kwargs)  # warm-up
            seconds = min(
                _timed(lambda: pool.run_query(engine, method, *args, **kwargs))
                for _ in range(repeats)
            )
        curve[n_workers] = {
            "seconds": seconds,
            "speedup": baseline / seconds if seconds else float("inf"),
        }
    return {"baseline_s": baseline, "workers": curve}


def _timed(call) -> float:
    import time

    start = time.perf_counter()
    call()
    return time.perf_counter() - start
