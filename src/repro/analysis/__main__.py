"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.analysis list
    python -m repro.analysis run fig03 [--sf 0.3] [--seed 42]
    python -m repro.analysis run all   [--sf 0.3] [--jobs 4]
    python -m repro.analysis all       [--sf 0.3] [--jobs 4]
    python -m repro.analysis validate  [--sf 0.05]

``--jobs N`` fans the experiments across a process pool.  The parent
pre-generates every distinct database the selected experiments need
(via the dbgen cache), so forked workers inherit the arrays through
copy-on-write pages instead of regenerating per process; results are
printed in registry order regardless of completion order.
"""

from __future__ import annotations

import argparse
import multiprocessing.context
import os
import sys

from repro.analysis.registry import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    EXPERIMENTS,
    run_experiment,
)

#: (scale_factor, seed) the pool workers run at; set by the parent
#: before forking (module-level so the worker function pickles by name).
_WORKER_PARAMS = {"scale_factor": DEFAULT_SCALE_FACTOR, "seed": DEFAULT_SEED}


def _run_one(experiment_id: str):
    params = _WORKER_PARAMS
    return run_experiment(
        experiment_id,
        scale_factor=params["scale_factor"],
        seed=params["seed"],
    )


class _NonDaemonProcess(multiprocessing.context.ForkProcess):
    """Pool worker that may itself have children: the measured-scaling
    experiment spawns a ``repro.core.parallel.WorkerPool`` inside its
    pool worker, and daemonic processes cannot have children."""

    @property
    def daemon(self):
        return False

    @daemon.setter
    def daemon(self, value):
        pass  # Pool insists on daemonizing its workers; refuse quietly.


class _NonDaemonContext(multiprocessing.context.ForkContext):
    Process = _NonDaemonProcess


def _run_parallel(targets, scale_factor: float, seed: int, jobs: int):
    """Run experiments on a fork pool; yield figures in target order."""
    import multiprocessing.pool

    from repro.tpch.dbgen import generate_database

    # Warm the in-process dbgen memo with every distinct table set so
    # fork children share the generated arrays copy-on-write.
    distinct_tables = {EXPERIMENTS[t].tables for t in targets if EXPERIMENTS[t].tables}
    for tables in sorted(distinct_tables):
        generate_database(scale_factor=scale_factor, seed=seed, tables=tables)

    _WORKER_PARAMS["scale_factor"] = scale_factor
    _WORKER_PARAMS["seed"] = seed
    with multiprocessing.pool.Pool(
        processes=jobs, context=_NonDaemonContext()
    ) as pool:
        yield from pool.imap(_run_one, targets)


def _scale_factor(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list all experiments")

    def add_run_arguments(subparser, with_experiment: bool):
        if with_experiment:
            subparser.add_argument(
                "experiment", choices=[*EXPERIMENTS, "all"], metavar="experiment",
                help="experiment id, e.g. fig03, or 'all' (see 'list')",
            )
        subparser.add_argument("--sf", type=_scale_factor, default=DEFAULT_SCALE_FACTOR,
                               help="TPC-H scale factor")
        subparser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        subparser.add_argument(
            "--jobs", type=_jobs, default=1,
            help="worker processes for multi-experiment runs (default 1)",
        )

    runner = subparsers.add_parser("run", help="run one experiment (or 'all')")
    add_run_arguments(runner, with_experiment=True)
    everything = subparsers.add_parser(
        "all", help="run every experiment (shorthand for 'run all')"
    )
    add_run_arguments(everything, with_experiment=False)

    validator = subparsers.add_parser(
        "validate",
        help="cross-validate the analytic model against the trace simulators",
    )
    validator.add_argument("--sf", type=_scale_factor, default=0.05)
    validator.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop quietly, and point
        # stdout at devnull so the interpreter's exit flush fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(args) -> int:
    if args.command == "validate":
        from repro.core.validation import ModelValidator
        from repro.tpch import generate_database

        db = generate_database(scale_factor=args.sf, seed=args.seed, tables=("lineitem",))
        report = ModelValidator().run(db)
        print(report.to_text())
        return 0 if report.passed else 1
    if args.command == "list":
        width = max(len(key) for key in EXPERIMENTS)
        for key, spec in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {spec.title}")
            if spec.paper_claim:
                print(f"{' ' * width}  paper: {spec.paper_claim}")
        return 0

    experiment = "all" if args.command == "all" else args.experiment
    targets = list(EXPERIMENTS) if experiment == "all" else [experiment]
    if args.jobs > 1 and len(targets) > 1:
        figures = _run_parallel(targets, args.sf, args.seed, args.jobs)
    else:
        figures = (
            run_experiment(experiment_id, scale_factor=args.sf, seed=args.seed)
            for experiment_id in targets
        )
    for figure in figures:
        print(figure.to_text())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
