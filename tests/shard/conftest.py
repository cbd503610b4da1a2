"""Fixtures for sharded scatter-gather tests.

The routing and observability tests share the bit-identity matrix's
thread-spawn clusters over ``tiny_db`` (cheap, in-process,
deterministic); the fault and lifecycle tests build their own process
clusters per test because killing a node consumes it.
"""

from __future__ import annotations

import pytest

SHARD_COUNTS = (1, 2, 3)
SHARD_MODES = ("hash", "range")


@pytest.fixture(
    scope="module",
    params=[
        (n_shards, mode) for n_shards in SHARD_COUNTS for mode in SHARD_MODES
    ],
    ids=[
        f"{n_shards}shard-{mode}"
        for n_shards in SHARD_COUNTS
        for mode in SHARD_MODES
    ],
)
def sharded(request, matrix):
    """(cluster, coordinator) per (shard count, mode)."""
    n_shards, mode = request.param
    coordinator = matrix.coordinator("tiny", f"shard-{n_shards}-{mode}")
    return coordinator.cluster, coordinator
