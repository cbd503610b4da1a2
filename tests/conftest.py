"""Shared fixtures: generated TPC-H databases and profilers.

Scale factors are chosen for test speed; the integration tests that pin
the paper's *quantitative* bands use ``paper_db`` whose working sets
exceed the modelled L3 the way the paper's SF 5 database does.
"""

from __future__ import annotations

import os
import time

import pytest
from databases import ALIGNED_BREAKS, SMALL_SF, TINY_SF, lineitem_twin, raw_twin, sorted_twin
from leaks import children, listening_sockets, session_pids, shm_segments

from repro import BROADWELL, SKYLAKE, MicroArchProfiler
from repro.tpch import generate_database

PAPER_SF = 0.2


def _repro_env() -> dict:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def repro_env_unchanged():
    """The environment is the one settings store (:mod:`repro.settings`),
    so a flip that outlives its test silently reconfigures every later
    one.  ``monkeypatch`` users are unaffected: it restores first."""
    before = _repro_env()
    yield
    after = _repro_env()
    if after != before:
        for name in after.keys() - before.keys():
            del os.environ[name]
        os.environ.update(before)
        pytest.fail(f"test left REPRO_* settings changed: {before} -> {after}")


#: How long the session's helper processes get to exit before they count
#: as leaked.
_LEAK_GRACE_SECONDS = 3.0


@pytest.fixture(scope="session", autouse=True)
def no_leaks_at_session_end():
    """The session leaves no shm segment, child process or listening
    socket behind: every pool, cluster and server a test starts is torn
    down on its own exit path.  multiprocessing's resource tracker is
    the one child that outlives its users by design.

    Sockets count only if this process or a live descendant holds them.
    Children are this process's own.  ``/dev/shm`` is compared machine
    wide, since a segment's name carries no owner: a segment another run
    makes meanwhile counts against this one."""
    from multiprocessing import resource_tracker

    shm, sockets = shm_segments(), listening_sockets(session_pids())
    yield
    tracker = resource_tracker._resource_tracker._pid
    deadline = time.monotonic() + _LEAK_GRACE_SECONDS
    while True:
        survivors = {pid: name for pid, name in children().items() if pid != tracker}
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    leaks = [f"process {pid} ({name})" for pid, name in sorted(survivors.items())]
    leaks += [f"shm segment /dev/shm/{name}" for name in sorted(shm_segments() - shm)]
    leaks += [
        f"listening socket {name}"
        for name in sorted(listening_sockets(session_pids()) - sockets)
    ]
    if leaks:
        pytest.fail("test session leaked: " + ", ".join(leaks))


@pytest.fixture(scope="session")
def db_factory():
    """Session-scoped database pool keyed on the generation arguments.

    Modules that need a non-standard database (odd seed, skew, table
    subset) request it here, so every test asking for the same identity
    shares one set of arrays for the whole session instead of
    regenerating per module."""
    pool: dict = {}

    def get(scale_factor, seed=7, tables=None, skew=None):
        key = (scale_factor, seed, tables, skew)
        if key not in pool:
            kwargs = {"scale_factor": scale_factor, "seed": seed}
            if tables is not None:
                kwargs["tables"] = tables
            if skew is not None:
                kwargs["skew"] = skew
            pool[key] = generate_database(**kwargs)
        return pool[key]

    return get


@pytest.fixture(scope="session")
def tiny_db(db_factory):
    """A few thousand lineitem rows; for fast unit-level checks."""
    return db_factory(TINY_SF, seed=7)


@pytest.fixture(scope="session")
def small_db(db_factory):
    """~120k lineitem rows; for engine-correctness cross-checks."""
    return db_factory(SMALL_SF, seed=11)


@pytest.fixture(scope="session")
def paper_db(db_factory):
    """~1.2M lineitem rows: scanned columns and the large join's hash
    table exceed the modelled 35 MB L3, as in the paper's setup."""
    return db_factory(PAPER_SF, seed=42)


@pytest.fixture(scope="session")
def big_db(db_factory):
    """SF 1.0 (~6M lineitem rows): the large join's hash table (~68 MB)
    and Q18's aggregation table exceed the 35 MB L3, putting the random
    accesses in the long-latency regime the paper studies at SF 5."""
    return db_factory(
        1.0,
        seed=42,
        tables=("lineitem", "orders", "supplier", "nation", "partsupp"),
    )


@pytest.fixture(scope="session")
def sorted_db(small_db):
    """lineitem clustered on l_shipdate: selective date predicates
    isolate a narrow kept range, so most chunks prune."""
    return sorted_twin(small_db)


def _shifted(columns):
    """Every l_shipdate pushed past Q6's window."""
    out = dict(columns)
    out["l_shipdate"] = columns["l_shipdate"] + 10000.0
    return out


@pytest.fixture(scope="session")
def shifted_db(tiny_db):
    """Every l_shipdate pushed past Q6's window: all chunks prune."""
    return lineitem_twin(tiny_db, "shifted", _shifted)


@pytest.fixture(scope="session")
def folded_db(db_factory):
    """``shifted_db``'s shape at SF 0.05 (~300k lineitem rows): Q6
    prunes one run of four full 65 536-row blocks plus a remainder, so
    equal pruned blocks fold with k = 4."""
    return lineitem_twin(db_factory(0.05, seed=7), "shifted", _shifted)


@pytest.fixture(scope="session")
def rollup_db(tiny_db):
    """Shipdate-partitioned twin of ``tiny_db`` with the default
    lineitem rollup attached."""
    from repro.rollup import PartitionSpec, build_and_attach, partitioned_database

    db = partitioned_database(tiny_db, PartitionSpec("l_shipdate", ALIGNED_BREAKS))
    build_and_attach(db)
    return db


@pytest.fixture(scope="session")
def raw_db(tiny_db):
    """``tiny_db`` with every column decoded to a plain array."""
    return raw_twin(tiny_db)


@pytest.fixture(scope="session")
def matrix(request):
    """The bit-identity matrix's runner (``tests/matrix``): its pools and
    clusters are spawned once per session, on first use."""
    from matrix.cells import Matrix

    matrix = Matrix(request.getfixturevalue)
    yield matrix
    matrix.close()


@pytest.fixture(scope="session")
def profiler():
    return MicroArchProfiler(spec=BROADWELL)


@pytest.fixture(scope="session")
def skylake_profiler():
    return MicroArchProfiler(spec=SKYLAKE)
