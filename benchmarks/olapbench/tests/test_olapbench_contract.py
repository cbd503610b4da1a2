"""BENCHMARK.json against the harness, and a smoke of the real command."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/olapbench"]
    assert SPEC["command"] == ["python3", "benchmarks/olapbench/run.py"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_lists_what_the_harness_has():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


def last_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_smoke_all_seven_workloads_emit_every_end_to_end_metric():
    warm = all((run.CACHE_DIR / f"prepared-{name}").exists() for name in WORKLOADS)
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--seconds", "0.3", "--setup-repeats", "1"],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr[-2000:]
    lines = last_lines(done.stdout)
    assert len(lines) == len(WORKLOADS)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert "known_failures Q18/Typer" in done.stdout
    if warm:  # a cold checkout also pays dbgen and the oracles once
        assert elapsed < 60, f"smoke took {elapsed:.0f}s"


def test_traced_run_emits_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "frontend_adhoc",
         "--seconds", "0.5", "--trace", "1", "--seed", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    (line,) = last_lines(done.stdout)
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    timed = [k for k, v in line["metrics"].items() if v["unit"] in ("ms", "s", "MB/s", "1/s")]
    assert all(line["metrics"][k]["value"] > 0 for k in timed), "every time is a measurement"


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    bare = tmp_path / "benchmarks" / "olapbench"
    bare.mkdir(parents=True)
    for source in run.HERE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/olapbench/run.py", "--workload", "scan_thread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not last_lines(done.stdout)


def test_compare_flags_regressions_and_unresolved_spreads(tmp_path, capsys):
    def record(path, p50s, rss):
        path.write_text(json.dumps([
            {"workload": "scan_thread", "seed": i, "trace": 0,
             "metrics": {"geomean_ms": p50, "peak_rss_mb": rss}}
            for i, p50 in enumerate(p50s)
        ]))

    a, b, noisy = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "n.json"
    record(a, [100.0, 101.0, 99.0, 100.5], 500.0)
    record(b, [140.0, 141.0, 139.0, 140.5], 501.0)
    record(noisy, [60.0, 100.0, 140.0, 180.0], 500.0)
    assert run.compare([a, b]) == 1
    out = capsys.readouterr().out
    assert "geomean_ms" in out and "REGRESSION" in out
    assert [l for l in out.splitlines() if "peak_rss_mb" in l][0].endswith("ok")
    assert run.compare([a, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert run.compare([a]) == 0
    assert "steady" in capsys.readouterr().out
