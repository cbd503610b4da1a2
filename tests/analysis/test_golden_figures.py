"""Every repeatable figure regenerates to its recorded digest.

``benchmarks/olapbench/golden_figures.json`` holds the digest of each
figure at SF 0.1, seed 42, the database the ``paper_figures`` benchmark
workload runs on.  A refactor of the figure builders, the engines, the
profiler or the hardware models must leave every one unchanged.
"""

import importlib.util
import json
import sys
from pathlib import Path

from repro.analysis import EXPERIMENTS, run_experiment

OLAPBENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "olapbench"
GOLDEN = json.loads((OLAPBENCH / "golden_figures.json").read_text())

#: Figures whose rows read the wall clock, so no digest can pin them.
WALL_CLOCK_FIGURES = {
    "obs-latency": "its span latencies are measured",
    "sec10-measured-scaling": "its speedups are timed process pools",
}


def _olapbench_workloads():
    """The benchmark's own ``workloads`` module, so the digest rule
    (which drops the execution-cache note) is the one it applies."""
    spec = importlib.util.spec_from_file_location(
        "olapbench_workloads", OLAPBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


figure_digest = _olapbench_workloads().figure_digest


def test_every_repeatable_figure_matches_its_digest(db_factory):
    db = db_factory(0.1, seed=42)
    assert set(GOLDEN) == set(EXPERIMENTS) - set(WALL_CLOCK_FIGURES)
    differing = [
        figure_id
        for figure_id, digest in GOLDEN.items()
        if figure_digest(run_experiment(figure_id, db=db)) != digest
    ]
    assert differing == []
