"""Experiment registry: every paper table/figure mapped to a callable.

``EXPERIMENTS`` is the index DESIGN.md references: one entry per table,
figure and quantified text claim of the paper's evaluation, with the
machine model it runs on and the TPC-H tables it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import settings
from repro.hardware.spec import BROADWELL, SKYLAKE, ServerSpec
from repro.core.profiler import MicroArchProfiler
from repro.tpch.dbgen import generate_database
from repro.analysis.result import FigureResult
from repro.analysis import (
    figures_compression,
    figures_micro,
    figures_multicore,
    figures_obs,
    figures_omitted,
    figures_optim,
    figures_pruning,
    figures_rollup,
    figures_sql,
    figures_tpch,
)

#: Default scale factor for regenerating figures: large enough that the
#: scanned columns and the large join's hash table exceed the 35 MB L3
#: (the paper uses SF 5 / SF 70 on a 256 GB box).  Override with the
#: REPRO_SF environment variable.
DEFAULT_SCALE_FACTOR = settings.scale_factor()
DEFAULT_SEED = 42

SCAN_TABLES = ("lineitem",)
JOIN_TABLES = ("lineitem", "orders", "supplier", "nation", "partsupp")
TPCH_TABLES = ("lineitem", "orders", "supplier", "nation", "partsupp", "part", "customer")


@dataclass(frozen=True)
class ExperimentSpec:
    """One regenerable paper artefact."""

    experiment_id: str
    title: str
    run: Callable
    machine: ServerSpec = BROADWELL
    tables: tuple[str, ...] = SCAN_TABLES
    paper_claim: str = ""

    def execute(self, db=None, scale_factor: float | None = None, seed: int = DEFAULT_SEED) -> FigureResult:
        """Run the experiment, generating data if none is supplied.

        Engine runs and reference answers served by the in-process
        execution cache are counted and recorded as a figure note, so
        regenerated artefacts always disclose how much of their input
        was memoized.
        """
        from repro.core import execcache

        if db is None:
            db = generate_database(
                scale_factor=scale_factor or DEFAULT_SCALE_FACTOR,
                seed=seed,
                tables=self.tables,
            )
        profiler = MicroArchProfiler(spec=self.machine)
        hits_before = execcache.EXECUTION_CACHE.hits
        references_before = execcache.reference_hits
        figure = self.run(db, profiler)
        references = execcache.reference_hits - references_before
        runs = execcache.EXECUTION_CACHE.hits - hits_before - references
        served = " and ".join(
            f"{count} {what}"
            for count, what in ((runs, "engine runs"), (references, "reference answers"))
            if count
        )
        if served:
            figure.note(f"{served} served from the in-process execution cache")
        return figure


def _spec(experiment_id, title, run, machine=BROADWELL, tables=SCAN_TABLES, claim=""):
    return ExperimentSpec(experiment_id, title, run, machine, tables, claim)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        _spec(
            "table1", "Broadwell server parameters",
            figures_micro.table1_server_parameters, tables=(),
            claim="Cache latencies and MLC bandwidths of Table 1.",
        ),
        _spec(
            "fig01", "Projection CPU cycles (DBMS R/C)",
            figures_micro.fig01_projection_commercial_cycles,
            claim="DBMS R ~50% Retiring; DBMS C ~85-90% Retiring.",
        ),
        _spec(
            "fig02", "Projection stall cycles (DBMS R/C)",
            figures_micro.fig02_projection_commercial_stalls,
            claim="Dcache+Execution dominate DBMS R; no Icache problem.",
        ),
        _spec(
            "fig03", "Projection CPU cycles (Typer/Tectorwise)",
            figures_micro.fig03_projection_hpe_cycles,
            claim="Typer stalls grow with projectivity; Tectorwise flat ~60%.",
        ),
        _spec(
            "fig04", "Projection stall cycles (Typer/Tectorwise)",
            figures_micro.fig04_projection_hpe_stalls,
            claim="Typer Dcache-dominated; Tectorwise Dcache~Execution split.",
        ),
        _spec(
            "fig05", "Projection single-core bandwidth",
            figures_micro.fig05_projection_bandwidth,
            claim="Typer near the 12 GB/s roof from p2; Tectorwise lower.",
        ),
        _spec(
            "fig06", "Projection normalized response time",
            figures_micro.fig06_projection_response_time,
            claim="DBMS R ~2 orders, DBMS C ~1 order slower than Typer.",
        ),
        _spec(
            "fig07", "Selection CPU cycles (DBMS R/C)",
            figures_micro.fig07_selection_commercial_cycles,
            claim="Retiring ratio grows with selectivity.",
        ),
        _spec(
            "fig08", "Selection stall cycles (DBMS R/C)",
            figures_micro.fig08_selection_commercial_stalls,
            claim="No major instruction-related stalls.",
        ),
        _spec(
            "fig09", "Selection CPU cycles (Typer/Tectorwise)",
            figures_micro.fig09_selection_hpe_cycles,
            claim="Highest stall ratio at 50% selectivity.",
        ),
        _spec(
            "fig10", "Selection stall cycles (Typer/Tectorwise)",
            figures_micro.fig10_selection_hpe_stalls,
            claim="Branch mispredictions dominate, peak at 50%; Typer "
                  "suffers less than Tectorwise at 10% (conjunction).",
        ),
        _spec(
            "fig11", "Join CPU cycles (DBMS R/C)",
            figures_micro.fig11_join_commercial_cycles, tables=JOIN_TABLES,
            claim="52-72% Retiring across join sizes.",
        ),
        _spec(
            "fig12", "Join CPU cycles (Typer/Tectorwise)",
            figures_micro.fig12_join_hpe_cycles, tables=JOIN_TABLES,
            claim="Stall ratio grows with join size; Retiring down to ~18%.",
        ),
        _spec(
            "fig13", "Join stall cycles (Typer/Tectorwise)",
            figures_micro.fig13_join_hpe_stalls, tables=JOIN_TABLES,
            claim="Dcache dominates large; Execution significant small/medium.",
        ),
        _spec(
            "fig14", "Large join bandwidth + response",
            figures_micro.fig14_join_bandwidth_response, tables=JOIN_TABLES,
            claim="Random bandwidth well below the roof; DBMS R/C several "
                  "times slower with Retiring-heavy breakdowns.",
        ),
        _spec(
            "sec6-chains", "Hash chain statistics (join vs group-by)",
            figures_micro.sec6_hash_chain_stats, tables=JOIN_TABLES,
            claim="Group-by chains 0-7 (mean .23, std .5); join 0-1 "
                  "(mean .44, std .49).",
        ),
        _spec(
            "fig15", "TPC-H CPU cycles (Typer/Tectorwise)",
            figures_tpch.fig15_tpch_cycles, tables=TPCH_TABLES,
            claim="Q1 highest Retiring; Q9 lowest for Typer, Q6 for Tw.",
        ),
        _spec(
            "fig16", "TPC-H stall cycles (Typer/Tectorwise)",
            figures_tpch.fig16_tpch_stalls, tables=TPCH_TABLES,
            claim="Q1 Execution-bound; Q6 Dcache (Typer) vs Branch (Tw); "
                  "Q9/Q18 Dcache + visible branch stalls.",
        ),
        _spec(
            "sec4-bandwidth", "Branched selection bandwidth",
            figures_tpch.selection_branched_bandwidth,
            claim="Typer 3/5/5, Tectorwise 2.5/3/3 GB/s at 10/50/90%.",
        ),
        _spec(
            "fig17", "Predication response time (Typer)",
            figures_tpch.fig17_predication_typer_response,
            claim="Predication hurts at 10%, helps at 50/90%.",
        ),
        _spec(
            "fig18", "Predication stall time (Typer)",
            figures_tpch.fig18_predication_typer_stalls,
            claim="Branch misprediction stalls eliminated.",
        ),
        _spec(
            "fig19", "Predication response time (Tectorwise)",
            figures_tpch.fig19_predication_tectorwise_response,
            claim="Predication helps at every selectivity.",
        ),
        _spec(
            "fig20", "Predication stall time (Tectorwise)",
            figures_tpch.fig20_predication_tectorwise_stalls,
            claim="Selection becomes Dcache/Execution-bound.",
        ),
        _spec(
            "fig21", "Predicated selection bandwidth",
            figures_tpch.fig21_predication_bandwidth,
            claim="Typer high and stable; Tectorwise lower, peak at 50%.",
        ),
        _spec(
            "sec7-q6", "Predicated TPC-H Q6",
            figures_tpch.sec7_predicated_q6,
            claim="Typer -11%, Tectorwise -52% response; bandwidth up.",
        ),
        _spec(
            "fig22", "SIMD normalized response time",
            figures_optim.fig22_simd_response_time, machine=SKYLAKE,
            claim="-21..-42% response; Retiring time down 70-87%.",
        ),
        _spec(
            "fig23", "SIMD normalized stall time",
            figures_optim.fig23_simd_stall_time, machine=SKYLAKE,
            claim="Dcache stalls up, Execution stalls down.",
        ),
        _spec(
            "fig24", "SIMD bandwidth",
            figures_optim.fig24_simd_bandwidth, machine=SKYLAKE,
            claim="SIMD exploits the underutilised bandwidth.",
        ),
        _spec(
            "fig25", "SIMD large join probe",
            figures_optim.fig25_simd_join, machine=SKYLAKE, tables=JOIN_TABLES,
            claim="-27% response, +50% bandwidth, fewer Dcache stalls.",
        ),
        _spec(
            "fig26", "Hardware prefetcher configurations",
            figures_optim.fig26_prefetchers, tables=JOIN_TABLES,
            claim="Prefetchers cut Dcache stalls ~85% and response ~73%; "
                  "the L2 streamer alone matches all four; joins gain ~20%.",
        ),
        _spec(
            "fig27", "Multi-core TPC-H CPU cycles",
            figures_multicore.fig27_multicore_tpch_cycles, tables=TPCH_TABLES,
            claim="Multi-core breakdowns track single-core.",
        ),
        _spec(
            "fig28", "Multi-core TPC-H stall cycles",
            figures_multicore.fig28_multicore_tpch_stalls, tables=TPCH_TABLES,
            claim="Same stall composition as single-core.",
        ),
        _spec(
            "fig29", "Multi-core projection bandwidth",
            figures_multicore.fig29_multicore_projection_bandwidth,
            tables=JOIN_TABLES,
            claim="Typer saturates the socket at ~8 threads, Tectorwise ~12.",
        ),
        _spec(
            "fig30", "Multi-core join bandwidth",
            figures_multicore.fig30_multicore_join_bandwidth, tables=JOIN_TABLES,
            claim="Both engines leave the socket's random bandwidth idle.",
        ),
        _spec(
            "sec10-measured-scaling", "Measured vs modeled multi-core scaling",
            figures_multicore.sec10_measured_scaling, tables=TPCH_TABLES,
            claim="The morsel-driven process executor's measured wall-clock "
                  "speedup tracks the modeled thread-scaling curves.",
        ),
        _spec(
            "sec10-headroom", "Multi-core bandwidth headroom",
            figures_multicore.sec10_multicore_headroom, tables=JOIN_TABLES,
            claim="SIMD: 21->31.5 GB/s; hyper-threading: x1.3 -- still "
                  "below the random-access roof.",
        ),
        _spec(
            "sec8-compression", "Compressed column widths (encoded storage)",
            figures_compression.sec8_compression, tables=SCAN_TABLES,
            claim="Lightweight encodings cut Q1/Q6 scan streams >= 2x for "
                  "the DSM engines; the NSM row store sees none of it.",
        ),
        _spec(
            "sec-pruning", "Zone-map pruning on clustered lineitem",
            figures_pruning.sec_pruning, tables=SCAN_TABLES,
            claim="Clustered predicates skip most morsel chunks with "
                  "bit-identical results; shuffled data prunes nothing.",
        ),
        _spec(
            "sec-rollup", "Rollup routing on partitioned lineitem",
            figures_rollup.sec_rollup, tables=SCAN_TABLES,
            claim="Subsumed aggregates read kilobytes of exact partials "
                  "instead of the base scan stream, bit-identically; "
                  "non-decomposable finishers fall back with a reason.",
        ),
        _spec(
            "sqlpath", "SQL-path vs hand-wired execution",
            figures_sql.sqlpath_equivalence, tables=TPCH_TABLES,
            claim="The SQL frontend lowers every documented workload onto "
                  "the hand-wired engine paths with identical results and "
                  "modeled cycles.",
        ),
        _spec(
            "obs-latency", "Per-stage query latency from span trees",
            figures_obs.obs_latency_breakdown, tables=TPCH_TABLES,
            claim="Traced service queries decompose wall-clock time into "
                  "admission, plan cache, per-morsel execution and "
                  "serialization, with modeled response time alongside.",
        ),
        _spec(
            "sec2-groupby", "Group-by micro-benchmark (omitted graph)",
            figures_omitted.sec2_groupby_micro, tables=JOIN_TABLES,
            claim="Behaves like the join at the micro-architectural level.",
        ),
        _spec(
            "sec9-extended", "Prefetchers on the omitted workloads",
            figures_omitted.sec9_prefetchers_extended, tables=SCAN_TABLES,
            claim="Results agree with the Figure 26 findings.",
        ),
        _spec(
            "sec6-commercial", "TPC-H on the commercial systems (omitted)",
            figures_omitted.sec6_commercial_tpch, tables=TPCH_TABLES,
            claim="Orders of magnitude between commercial and "
                  "high-performance systems on every query.",
        ),
        _spec(
            "sec10-speedup", "TPC-H speedup vs thread count (omitted)",
            figures_omitted.sec10_speedup_curves, tables=TPCH_TABLES,
            claim="All systems peak at fourteen threads.",
        ),
        _spec(
            "sec10-tpch-bw", "Multi-core TPC-H bandwidth (omitted graph)",
            figures_omitted.sec10_tpch_multicore_bandwidth, tables=TPCH_TABLES,
            claim="Varies between the projection's high and the join's low "
                  "utilisation; predicated Q6 approaches the roof.",
        ),
    )
}


def run_experiment(
    experiment_id: str,
    db=None,
    scale_factor: float | None = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Regenerate one paper artefact by id (e.g. ``"fig03"``)."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return spec.execute(db=db, scale_factor=scale_factor, seed=seed)
