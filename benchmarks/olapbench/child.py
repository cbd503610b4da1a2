"""One workload in one fresh process: set up, check answers, measure.

``run.py`` starts this file once per measurement (and once more per
extra set-up sample).  The process loads the database, builds whatever
the workload's driver needs, runs every class once against its oracle,
then drives the closed loop and writes one JSON result file.

Set-up time runs from the parent's spawn timestamp to the first timed
op, so interpreter start and imports are in it.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import census  # noqa: E402
import stats  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_FAILURES, WORKLOADS, CacheRounds, FigureOps, FixedOps, Op, opened,
)

GOLDEN_FIGURES = HERE / "golden_figures.json"
STATUS_OK = "ok"
#: Reference-kernel samples taken at the end of set-up (~6 ms each), on
#: top of those taken while it ran.
SETUP_REFERENCE_SAMPLES = 5


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
class Oracle:
    """Expected ``(value, tuples)`` per (engine, statement): a direct
    single-node call on the plain database -- no service, no routing,
    no pruning, no shards.  Fixed class lists persist their answers
    beside the dbgen cache so set-up does not recompute them; generated
    statements are answered on demand."""

    def __init__(self, db, path: Path | None):
        self.db = db
        self.path = path
        #: Rows of the rollups attached to the database under test.  An
        #: answer routed to a rollup reports the pre-aggregated rows it
        #: read as ``tuples``, by design; its value must still match.
        self.rollup_rows = 0
        self.known: dict = {}
        self._dirty = False
        if path is not None and path.exists():
            self.known = json.loads(path.read_text())

    def expected(self, op: Op):
        key = f"{op.engine}\n{op.sql}"
        if key not in self.known:
            from repro.engines import engine_by_name
            from repro.serve.protocol import jsonable
            from repro.sql import compile_sql

            result = compile_sql(op.sql).execute(engine_by_name(op.engine), self.db)
            # Through JSON and back, as every response over the wire is.
            self.known[key] = json.loads(
                json.dumps([jsonable(result.value), result.tuples])
            )
            self._dirty = True
        return self.known[key]

    def mismatch(self, op: Op, response: dict) -> str | None:
        want = self.expected(op)
        got = [response.get("value"), response.get("tuples")]
        if got[1] <= self.rollup_rows:
            got[1] = want[1]
        if got == want or json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True):
            return None
        return "answer differs from the single-node oracle"

    def save(self) -> None:
        if self.path is not None and self._dirty:
            staging = self.path.with_suffix(f".tmp{os.getpid()}")
            staging.write_text(json.dumps(self.known))
            staging.replace(self.path)
            self._dirty = False


class GoldenFigures:
    """Committed digests of every repeatable figure's rendered table."""

    def __init__(self):
        self.known = (
            json.loads(GOLDEN_FIGURES.read_text()) if GOLDEN_FIGURES.exists() else {}
        )

    def mismatch(self, op: Op, response: dict) -> str | None:
        if response["value"] == self.known.get(op.sql):
            return None
        return "figure digest differs from golden"


def wrong_answer(oracle, op: Op, response: dict) -> str | None:
    """Why ``response`` is a failed op, or None when it is right."""
    if response.get("status") != STATUS_OK:
        return f"{response.get('status')}: {str(response.get('error'))[:160]}"
    return oracle.mismatch(op, response)


# ----------------------------------------------------------------------
# Host-speed reference
# ----------------------------------------------------------------------
class Reference:
    """A fixed kernel timed alongside the workload.

    The boxes this runs on change speed by 25-100 % for minutes at a
    time (neighbours on the same host), which is more than any bound.  The
    same few milliseconds of work -- a numpy stream, a scatter, an
    interpreter loop chasing pointers through a dict far larger than
    the core's own caches: what the ops are made of -- are therefore timed
    every ``EVERY_S`` during set-up and the timed section, and every
    time the harness reports is divided by ``speed``: how much slower
    than ``NOMINAL_S`` the kernel ran.  Reported times are thus times on
    a host that runs the kernel in exactly ``NOMINAL_S``; the raw
    numbers and the factor are printed beside them.
    """

    #: The kernel's time beside a running workload on the 2-core box the
    #: baseline was taken on, in that box's fast state: there ``speed``
    #: is about 1.
    NOMINAL_S = 0.0078
    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._stream = rng.random(1024 * 1024)
        self._keys = rng.integers(0, 4096, 512 * 1024)
        # The interpreter part misses the cache, as parsing, planning and
        # compiling do.  With a tight arithmetic loop in its place the
        # kernel slowed by 40-85 % of what the workloads did when the
        # host slowed; with this, by 55-105 %.
        draw = random.Random(0)
        self._table = {draw.getrandbits(40): i for i in range(200_000)}
        self._lookups = draw.sample(list(self._table), 10_000)
        self.samples: list = []
        self.cpu_s = 0.0
        self._due = 0.0

    def fresh(self) -> "Reference":
        """Another series of samples on the same kernel data."""
        other = copy.copy(self)
        other.samples, other.cpu_s, other._due = [], 0.0, 0.0
        return other

    def due(self, now: float) -> bool:
        """True once per ``EVERY_S``; call under the loop's lock."""
        if now < self._due:
            return False
        self._due = now + self.EVERY_S
        return True

    def sample(self) -> None:
        cpu = time.thread_time()
        begin = time.perf_counter()
        total = float((self._stream * 1.0001 + 0.5).sum())
        total += float(self._np.bincount(self._keys).sum())
        table = self._table
        for key in self._lookups:
            total += table[key]
        self.samples.append(time.perf_counter() - begin)
        self.cpu_s += time.thread_time() - cpu

    def speed(self) -> float:
        """> 1 on a host slower than nominal."""
        return stats.low_mid_mean(self.samples) / self.NOMINAL_S


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Drive:
    """What one pass of the closed loop did."""

    rounds: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: When each round's ops were handed out, and when the last op ended.
    round_marks: list = field(default_factory=list)
    #: (op, latency in seconds, response without its trace)
    records: list = field(default_factory=list)


def call(runner, op: Op, traced: bool) -> dict:
    try:
        return runner.call(op, traced)
    except Exception as exc:  # noqa: BLE001 - a failed op, never a lost run
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def drive(
    runner, ops_for_round, clients: int, seconds: float | None = None,
    rounds: int | None = None, first_round: int = 0,
    recorder: SpanRecorder | None = None, after_round=None,
    reference: Reference | None = None,
) -> Drive:
    """Closed loop: each of ``clients`` threads sends its next op when
    its previous one returned.  Runs whole rounds only, so every class
    is measured equally often: either exactly ``rounds`` of them, or as
    many as end nearest to ``seconds``."""
    result = Drive()
    lock = threading.Lock()
    queue: deque = deque()
    started = time.perf_counter()
    issued = itertools.count(1)
    reference_cpu_before = reference.cpu_s if reference is not None else 0.0

    def take():
        with lock:
            if not queue:
                done = result.rounds
                if done and after_round is not None:
                    after_round()
                if rounds is not None:
                    if done >= rounds:
                        return None
                elif done:
                    elapsed = time.perf_counter() - started
                    if elapsed + 0.5 * elapsed / done >= seconds:
                        return None
                queue.extend(ops_for_round(first_round + done))
                result.rounds += 1
                result.round_marks.append(time.perf_counter())
            calibrate = reference is not None and reference.due(time.perf_counter())
            return next(issued), queue.popleft(), calibrate

    def client():
        while (item := take()) is not None:
            index, op, calibrate = item
            if calibrate:
                reference.sample()
            if recorder is None:
                begin = time.perf_counter()
                response = call(runner, op, False)
                latency = time.perf_counter() - begin
            else:
                response, span = recorder.request(
                    index, op.cls, lambda: call(runner, op, True)
                )
                latency = span["end"] - span["start"]
            result.records.append((op, latency, response))

    cpu_before = time.process_time() + census.descendant_cpu_seconds(os.getpid())
    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.round_marks.append(time.perf_counter())
    result.wall_s = result.round_marks[-1] - started
    result.cpu_s = (
        time.process_time() + census.descendant_cpu_seconds(os.getpid()) - cpu_before
    )
    if reference is not None:
        result.cpu_s -= reference.cpu_s - reference_cpu_before
    return result


def failures_of(oracle, records) -> list:
    found = []
    for op, _, response in records:
        why = wrong_answer(oracle, op, response)
        if why is not None:
            found.append(f"{op.cls}: {why}")
    return found


def end_to_end(timed: Drive, speed: float) -> dict:
    """The end-to-end numbers of one timed section, every time divided
    by the host-speed factor (see :class:`Reference`)."""
    samples: dict = {}
    for op, latency, response in timed.records:
        if response.get("status") == STATUS_OK:
            samples.setdefault(op.cls, []).append(latency * 1e3 / speed)
    summary = stats.latency_summary(samples)
    ops = len(timed.records)
    # Per round, then the median: a burst of host noise slows a few
    # rounds, not the number reported.
    marks = timed.round_marks
    round_s = statistics.median(later - earlier for earlier, later in zip(marks, marks[1:]))
    summary.update(
        throughput_ops_s=ops / timed.rounds / round_s * speed,
        cpu_ms_per_op=timed.cpu_s * 1e3 / ops / speed,
        rounds=timed.rounds,
        wall_s=timed.wall_s,
        host_speed=speed,
    )
    return summary


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def probe_known_failures(workload, db, runner) -> list:
    """Run each known-bad cell once, untimed, and say what happened."""
    from repro.tpch import TPCH_SQL

    outcomes = []
    for label, engine in KNOWN_FAILURES.get(workload.name, ()):
        op = Op(f"{label}/{engine}", TPCH_SQL[label], engine)
        why = wrong_answer(Oracle(db, None), op, call(runner, op, False))
        outcomes.append({"class": op.cls, "outcome": "fixed" if why is None else why})
    return outcomes


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its (waited-for) children."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def run(args) -> dict:
    from repro.tpch import generate_database

    workload = WORKLOADS[args.workload]
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    # Sampled at every stage of set-up, so its speed factor describes
    # the seconds set-up took and not only their end.
    setup_reference = Reference()
    setup_reference.sample()
    load_started = time.perf_counter()
    db = generate_database(scale_factor=workload.scale_factor, seed=workload.db_seed)
    load_s = time.perf_counter() - load_started
    setup_reference.sample()
    source = workload.ops(db, args.seed)
    if isinstance(source, FigureOps):
        oracle = GoldenFigures()
    else:
        persistent = isinstance(source, FixedOps)
        # Named after the data too: an answer is only right for its database.
        oracle_file = f"oracle-{workload.name}-sf{workload.scale_factor}-seed{workload.db_seed}.json"
        oracle = Oracle(db, cache_dir / oracle_file if persistent else None)
        if persistent:
            for op in source.classes:
                oracle.expected(op)
            oracle.save()

    body: dict = {"workload": workload.name, "seed": args.seed}
    with opened(workload.runner, db) as runner:
        if isinstance(oracle, Oracle):
            oracle.rollup_rows = sum(
                runner.db.rollup(name).n_rows
                for name in getattr(runner.db, "rollup_names", ())
            )
        # Every class once before timing: lazy zone maps, join builds and
        # compiled programs are built here, and every answer is checked.
        setup_reference.sample()
        warm = drive(runner, lambda _: source.warmup(), workload.clients, rounds=1,
                     reference=setup_reference)
        body["warmup_failures"] = failures_of(oracle, warm.records)
        for _ in range(SETUP_REFERENCE_SAMPLES):
            setup_reference.sample()
        body["setup_host_speed"] = setup_reference.speed()
        body["setup_s"] = (time.time() - args.spawned_at) / setup_reference.speed()
        if args.mode == "setup":
            return body

        if args.mode == "golden":
            digests = {op.sql: response["value"] for op, _, response in warm.records}
            GOLDEN_FIGURES.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
            return body

        clear = None
        if workload.exec_cache:
            clear = CacheRounds()
            clear()
        if not args.trace:
            reference = setup_reference.fresh()
            timed = drive(runner, source.round, workload.clients,
                          seconds=args.seconds, after_round=clear, reference=reference)
            body.update(end_to_end(timed, reference.speed()))
        else:
            import layers

            recorder = SpanRecorder()
            plain = drive(runner, source.round, workload.clients,
                          seconds=args.seconds / 2, after_round=clear)
            with layers.traced_layers(recorder, workload):
                traced = drive(runner, source.round, workload.clients,
                               rounds=plain.rounds, first_round=plain.rounds,
                               recorder=recorder, after_round=clear)
            timed = Drive(records=plain.records + traced.records)
            body["per_layer"] = layers.collect(
                layers.Context(workload, db, runner, source, recorder, plain, traced, load_s),
                clear,
            )
            body["self_time_share"] = layers.self_time_shares(recorder.spans)
            traces = cache_dir.parent / "traces"
            traces.mkdir(exist_ok=True)
            recorder.dump(traces / f"{workload.name}-seed{args.seed}.json")
        failed = failures_of(oracle, timed.records)
        body["attempted"] = len(warm.records) + len(timed.records)
        body["failed"] = len(failed)
        body["failures"] = failed[:10]
        body["known_failures"] = probe_known_failures(workload, db, runner)
    body["peak_rss_mb"] = peak_rss_mb()
    return body


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup", "golden"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    body = run(args)
    args.result.write_text(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
