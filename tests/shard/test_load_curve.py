"""The open-loop load generator end to end (slow: real wall-clock).

Runs a shortened curve through :func:`open_loop_run` and checks the
*shape* of what it records -- quantile ordering, achieved vs offered
throughput accounting, histogram agreement -- not absolute numbers,
which belong to BENCH_PR10.json with its host stamp.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import Coordinator
from repro.tpch.sql import TPCH_SQL


def _exact_quantiles(latencies_s: list) -> dict:
    ordered = sorted(latencies_s)

    def pick(q: float) -> float:
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    return {
        "p50": round(pick(0.50), 4),
        "p99": round(pick(0.99), 4),
        "p999": round(pick(0.999), 4),
    }


def open_loop_run(coordinator, sql: str, rate_qps: float, n_requests: int) -> dict:
    """Open-loop load: arrivals on a fixed clock, latency measured from
    the scheduled arrival (coordinator queueing counts against the
    tail, as it would for a real client population)."""
    interval = 1.0 / rate_qps
    start = time.perf_counter() + 0.05
    latencies: list = []
    errors = [0]
    lock = threading.Lock()

    def client(index: int) -> None:
        scheduled = start + index * interval
        now = time.perf_counter()
        if now < scheduled:
            time.sleep(scheduled - now)
        response = coordinator.execute(sql)
        done = time.perf_counter()
        with lock:
            if response["status"] == "ok":
                latencies.append(done - scheduled)
            else:
                errors[0] += 1

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(n_requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert errors[0] == 0, f"{errors[0]} requests failed"
    return {
        "offered_qps": rate_qps,
        "requests": n_requests,
        "achieved_qps": round(n_requests / elapsed, 2),
        "latency_s": _exact_quantiles(latencies),
    }


@pytest.mark.slow
def test_open_loop_run_records_ordered_quantiles(tiny_db):
    with ShardCluster(tiny_db, n_shards=2, spawn="thread") as cluster:
        coordinator = Coordinator(tiny_db, cluster)
        coordinator.execute(TPCH_SQL["Q6"])  # warm caches
        entry = open_loop_run(
            coordinator, TPCH_SQL["Q6"], rate_qps=20.0, n_requests=40
        )
    quantiles = entry["latency_s"]
    assert quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"]
    assert entry["requests"] == 40
    assert entry["achieved_qps"] > 0

    histogram = coordinator.stats_snapshot()["latency_quantiles_s"]
    assert "route=scatter" in histogram
    assert set(histogram["route=scatter"]) == {"p50", "p99", "p999"}


def test_exact_quantiles_on_a_known_sample():
    sample = [float(i) for i in range(101)]  # 0..100
    quantiles = _exact_quantiles(sample)
    assert quantiles["p50"] == 50.0
    assert quantiles["p99"] == 99.0
    assert quantiles["p999"] == 100.0
