#!/usr/bin/env python3
"""olapbench: one traced benchmark for the whole query stack.

    python3 benchmarks/olapbench/run.py                      # all seven workloads
    python3 benchmarks/olapbench/run.py --workload scan_thread --seed 3
    python3 benchmarks/olapbench/run.py --workload scan_thread --traced
    python3 benchmarks/olapbench/run.py --repeat 10 --out A.json
    python3 benchmarks/olapbench/run.py --compare A.json B.json

Each workload runs in a fresh child process (``child.py``); this parent
only spawns children, takes a leak census around each, and prints.  The
last line of standard output is one JSON object per the benchmark
contract (``correct``, ``attempted``, ``failed``, ``metrics``); with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  Names, units and bounds come from
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from census import Census  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "olapbench"
CACHE_DIR = BUILD_DIR / "cache"
#: The contract gives a run 180 s; leave room for the census and output.
CHILD_TIMEOUT_S = 170.0


class RunFailed(RuntimeError):
    """A child crashed, hung, or left something behind."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workload) -> dict:
    """The child's environment: no inherited ``REPRO_*`` toggle, the
    dbgen cache inside the checkout, the execution cache off for query
    workloads (a repeat would otherwise measure a memo lookup)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    env["REPRO_EXEC_CACHE"] = "1" if workload.exec_cache else "0"
    return env


def spawn(workload, seed: int, seconds: float, trace: int, mode: str) -> dict:
    """Run one child to its end; returns what it wrote.  Raises when it
    fails or when anything it created outlives it."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    handle, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=BUILD_DIR)
    os.close(handle)
    before = Census.take()
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--result", result_path,
        "--spawned-at", repr(time.time()),
    ]
    # Its own session, so everything it starts can be found afterwards;
    # its output goes to our stderr, keeping stdout for the result.
    child = subprocess.Popen(
        command, env=child_env(workload), stdout=sys.stderr, start_new_session=True
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        code = None
    leaks = before.leaks_after(child.pid)
    try:
        text = Path(result_path).read_text()
    finally:
        os.unlink(result_path)
    if code != 0:
        raise RunFailed(
            f"{workload.name}: child "
            + ("timed out" if code is None else f"exited with code {code}")
        )
    if leaks:
        raise RunFailed(f"{workload.name}: leaked " + "; ".join(leaks))
    return json.loads(text)


def measure(workload, seed: int, seconds: float, trace: int, setup_repeats=None) -> dict:
    """One run of one workload: set-up samples first, then the measured
    child.  The very first set-up of a workload in a checkout fills the
    dbgen cache and the oracle file and is not counted."""
    marker = CACHE_DIR / f"prepared-{workload.name}"
    if not marker.exists():
        spawn(workload, seed, seconds, 0, "setup")
        marker.touch()
    repeats = 1 if trace else (setup_repeats or workload.setup_repeats)
    setups = [
        spawn(workload, seed, seconds, 0, "setup")["setup_s"] for _ in range(repeats - 1)
    ]
    body = spawn(workload, seed, seconds, trace, "run")
    setups.append(body["setup_s"])
    body["setup_s"] = statistics.median(setups)
    body["setup_samples"] = setups
    body["failed"] += len(body["warmup_failures"])
    body["failed_share"] = body["failed"] / body["attempted"]
    body["trace"] = trace
    return body


def contract_line(body: dict, declared: dict) -> dict:
    """The run in the shape the benchmark contract requires."""
    source = body["per_layer"] if body["trace"] else body
    listed = declared["per_layer"] if body["trace"] else declared["end_to_end"]
    return {
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {
            m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def report(body: dict, line: dict, out=None) -> None:
    """Every metric by name with its unit, then the contract line."""
    name = body["workload"]
    kind = "per-layer (traced)" if body["trace"] else "end-to-end"
    print(f"== {name} seed={body['seed']} {kind} ==", file=out)
    for metric, entry in line["metrics"].items():
        print(f"{name:16s} {metric:34s} {entry['value']:>16.6g} {entry['unit']}", file=out)
    print(
        f"{name:16s} {'failed_share':34s} {body['failed_share']:>16.6g} ratio  "
        f"({body['failed']} of {body['attempted']} ops, warm-up included)",
        file=out,
    )
    if not body["trace"]:
        print(
            f"{name:16s} {'latency_ms_p50':34s} {body['latency_ms_p50']:>16.6g} ms  (not bounded)",
            file=out,
        )
        print(
            f"{name:16s} samples={body['samples']} rounds={body['rounds']} "
            f"timed={body['wall_s']:.2f}s host_speed={body['host_speed']:.3f} "
            "(times above are divided by it) setup samples="
            + ",".join(f"{s:.2f}" for s in body["setup_samples"]),
            file=out,
        )
        for cls, ms in sorted(body["class_median_ms"].items()):
            print(f"{name:16s}   class {cls:28s} median {ms:10.3f} ms", file=out)
    else:
        # Where request time went: self time per span name (harness
        # "request" = client side; the rest are the program's own spans).
        for span_name, share in body["self_time_share"].items():
            print(f"{name:16s}   self time {span_name:20s} {share:8.1%} of request time", file=out)
    for failure in body["warmup_failures"] + body["failures"]:
        print(f"{name:16s} FAILED {failure}", file=out)
    for known in body["known_failures"]:
        print(f"{name:16s} known_failures {known['class']}: {known['outcome']}", file=out)
    print(json.dumps(line), file=out)


def append_record(path: Path, body: dict, line: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append({
        "workload": body["workload"], "seed": body["seed"], "trace": body["trace"],
        "host": host_stamp(), "failed": body["failed"], "attempted": body["attempted"],
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        "class_median_ms": body.get("class_median_ms"),
        "host_speed": body.get("host_speed"),
        "self_time_share": body.get("self_time_share"),
        "known_failures": body["known_failures"],
    })
    path.write_text(json.dumps(records, indent=1) + "\n")


# ----------------------------------------------------------------------
# Comparing recorded runs
# ----------------------------------------------------------------------
def _samples(path: Path) -> dict:
    """(workload, metric) -> values of every untraced run in ``path``."""
    grouped: dict = {}
    for record in json.loads(path.read_text()):
        if not record["trace"]:
            for metric, value in record["metrics"].items():
                grouped.setdefault((record["workload"], metric), []).append(value)
    return grouped


def compare(paths: list, out=None) -> int:
    """One file: median and spread of each metric against its bound.
    Two files: whether B is worse than A by more than the bound;
    'unresolved' where either side's spread exceeds the bound."""
    declared = {m["name"]: m for m in spec()["end_to_end"]}
    base = _samples(paths[0])
    other = _samples(paths[1]) if len(paths) > 1 else None
    regressions = 0
    for (workload, metric), values in sorted(base.items()):
        meta = declared.get(metric)
        if meta is None:
            continue
        spread = stats.iqr_share(values)
        shown = "n/a" if spread is None else f"{spread:6.1%}"
        head = (
            f"{workload:16s} {metric:18s} median {statistics.median(values):12.5g} "
            f"{meta['unit']:6s} n={len(values):<3d} spread {shown} bound {meta['bound']:.0%}"
        )
        if other is None:
            verdict = (
                "one run, spread unknown" if spread is None
                else "steady" if spread <= meta["bound"] / 3
                else "within bound" if spread <= meta["bound"]
                else "TOO NOISY"
            )
            print(f"{head}  {verdict}", file=out)
            continue
        new = other.get((workload, metric))
        if not new:
            print(f"{head}  missing in {paths[1]}", file=out)
            continue
        worse = stats.worsening(statistics.median(values), statistics.median(new), meta["better"])
        spreads = [s for s in (spread, stats.iqr_share(new)) if s is not None]
        # setup_s is judged on medians alone: its spread has no bound.
        if metric != "setup_s" and any(s > meta["bound"] for s in spreads):
            verdict = "unresolved (spread exceeds bound)"
        elif worse > meta["bound"]:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "improved" if worse < -meta["bound"] else "ok"
        print(
            f"{head}  -> {statistics.median(new):12.5g} ({worse:+.1%} worse)  {verdict}", file=out
        )
    return 1 if regressions else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=1,
                        help="shuffles the op list and draws generated literals")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run that yields the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="after the untraced run, also do the traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--setup-repeats", type=int, default=None,
                        help="set-up samples per run (default: per workload)")
    parser.add_argument("--out", type=Path, help="append every run to this JSON file")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="RUNS.json",
                        help="summarise one recorded file, or compare two")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden_figures.json from this checkout")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare[:2])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"olapbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    declared = spec()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    try:
        if args.write_golden:
            spawn(WORKLOADS["paper_figures"], args.seed, seconds, 0, "golden")
            return 0
        print(f"host: {json.dumps(host_stamp())}")
        correct = True
        for name in args.workload or list(WORKLOADS):
            for seed in range(args.seed, args.seed + args.repeat):
                for trace in ([0, 1] if args.traced else [args.trace]):
                    body = measure(WORKLOADS[name], seed, seconds, trace, args.setup_repeats)
                    line = contract_line(body, declared)
                    report(body, line)
                    correct = correct and line["correct"]
                    if args.out:
                        append_record(args.out, body, line)
    except RunFailed as failure:
        print(f"olapbench: {failure}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
