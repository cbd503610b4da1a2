"""Experiment-registry tests: completeness and executability."""

import os
import subprocess
import sys

import pytest

from repro.analysis import EXPERIMENTS, FigureResult, run_experiment
from repro.analysis.__main__ import main as cli_main
from repro.hardware import SKYLAKE

#: Every table/figure of the paper's evaluation plus the quantified
#: text claims.
EXPECTED_IDS = {
    "table1",
    *(f"fig{index:02d}" for index in range(1, 31)),
    "sec4-bandwidth", "sec6-chains", "sec7-q6", "sec10-headroom",
    # Results the paper describes but omits as graphs.
    "sec2-groupby", "sec9-extended", "sec10-tpch-bw",
    "sec6-commercial", "sec10-speedup",
    # Compressed column widths (repro.storage.encoding).
    "sec8-compression",
    # SQL-path equivalence (repro.sql frontend vs hand-wired calls).
    "sqlpath",
    # Span-tree latency breakdown (repro.obs observability layer).
    "obs-latency",
    # Measured process-executor scaling vs the Section 10 model.
    "sec10-measured-scaling",
    # Zone-map pruning on clustered data (repro.core.pruning).
    "sec-pruning",
    # Rollup routing on partitioned data (repro.rollup).
    "sec-rollup",
}


class TestRegistryCompleteness:
    def test_every_paper_artefact_registered(self):
        assert set(EXPERIMENTS) == EXPECTED_IDS

    def test_every_entry_has_title_and_claim(self):
        for spec in EXPERIMENTS.values():
            assert spec.title
            assert spec.paper_claim

    def test_simd_experiments_run_on_skylake(self):
        for experiment_id in ("fig22", "fig23", "fig24", "fig25"):
            assert EXPERIMENTS[experiment_id].machine is SKYLAKE

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig99")


class TestExecution:
    @pytest.mark.parametrize(
        "experiment_id",
        ["table1", "fig03", "fig05", "fig10", "sec6-chains", "fig29"],
    )
    def test_selected_experiments_execute(self, experiment_id, small_db):
        spec = EXPERIMENTS[experiment_id]
        figure = spec.execute(db=small_db)
        assert isinstance(figure, FigureResult)
        assert figure.rows
        assert figure.to_text()

    def test_run_experiment_generates_data(self):
        figure = run_experiment("fig05", scale_factor=0.005)
        assert figure.rows

    def test_execute_with_given_db_skips_generation(self, small_db):
        figure = EXPERIMENTS["fig03"].execute(db=small_db)
        assert len(figure.rows) == 8  # 2 engines x 4 degrees

    def test_explicit_scale_factor_reaches_the_generator(self, monkeypatch):
        """Only a missing scale factor means the default: 0 is passed on
        (and rejected there) rather than silently run at SF 0.3."""
        import repro.analysis.registry as registry

        requested = []

        def spy(*, scale_factor, **kwargs):
            requested.append(scale_factor)
            raise ValueError("scale_factor must be positive")

        monkeypatch.setattr(registry, "generate_database", spy)
        with pytest.raises(ValueError, match="positive"):
            EXPERIMENTS["fig05"].execute(scale_factor=0.0)
        assert requested == [0.0]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "fig30" in out

    def test_run_single(self, capsys):
        assert cli_main(["run", "table1", "--sf", "0.002"]) == 0
        assert "Broadwell" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig99"],
            ["run", "fig03", "--sf", "0"],
            ["run", "all", "--sf", "-1"],
            ["all", "--sf", "0"],
            ["validate", "--sf", "0"],
            ["run", "fig03", "--jobs", "0"],
            ["all", "--jobs", "-3"],
        ],
        ids=["unknown-id", "run-sf-zero", "run-all-sf-negative", "all-sf-zero",
             "validate-sf-zero", "run-jobs-zero", "all-jobs-negative"],
    )
    def test_bad_input_is_a_usage_error(self, argv, monkeypatch, capsys):
        """Exit 2 with a usage message, before any data is generated."""
        import repro.analysis.__main__ as cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran an experiment on rejected input")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["list"], ["run", "table1", "--sf", "0.002"]], ids=["list", "run"]
    )
    def test_closed_pipe_stops_quietly(self, argv):
        """``python -m repro.analysis ... | head`` once ``head`` exits."""
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "wb") as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "repro.analysis", *argv],
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert "Traceback" not in done.stderr and "Error" not in done.stderr, done.stderr

    def test_all_subcommand_with_jobs_matches_sequential(self, capsys, monkeypatch):
        """`all --jobs N` must produce the same figure rows as the
        sequential path (on a trimmed registry, to keep the test fast)."""
        import repro.analysis.__main__ as cli
        import repro.analysis.registry as registry

        subset = {key: EXPERIMENTS[key] for key in ("table1", "fig05")}
        monkeypatch.setattr(registry, "EXPERIMENTS", subset)
        monkeypatch.setattr(cli, "EXPERIMENTS", subset)

        assert cli_main(["all", "--sf", "0.005"]) == 0
        sequential = capsys.readouterr().out
        assert cli_main(["all", "--sf", "0.005", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def rows(text):
            return [
                line for line in text.splitlines()
                if line and "execution cache" not in line
            ]

        assert rows(parallel) == rows(sequential)
        assert "fig05" in sequential
