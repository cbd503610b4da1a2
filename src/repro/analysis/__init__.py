"""Regeneration of every table and figure of the paper's evaluation."""

from repro.analysis.result import (
    CYCLE_SHARE_COLUMNS,
    STALL_SHARE_COLUMNS,
    TIME_COLUMNS,
    FigureResult,
    cycle_share_row,
    stall_share_row,
    time_breakdown_row,
)
from repro.analysis.ascii_chart import (
    LEGEND,
    bandwidth_chart,
    cycle_chart,
    stacked_bar,
    stall_chart,
)
from repro.analysis.ablation import METRICS, AblationStudy, scalable_parameters
from repro.analysis.registry import (
    DEFAULT_SCALE_FACTOR,
    EXPERIMENTS,
    ExperimentSpec,
    run_experiment,
)

__all__ = [
    "AblationStudy",
    "CYCLE_SHARE_COLUMNS",
    "DEFAULT_SCALE_FACTOR",
    "EXPERIMENTS",
    "ExperimentSpec",
    "FigureResult",
    "LEGEND",
    "STALL_SHARE_COLUMNS",
    "TIME_COLUMNS",
    "bandwidth_chart",
    "cycle_chart",
    "METRICS",
    "cycle_share_row",
    "run_experiment",
    "scalable_parameters",
    "stacked_bar",
    "stall_chart",
    "stall_share_row",
    "time_breakdown_row",
]
