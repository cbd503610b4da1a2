"""Reproduction of *Micro-architectural Analysis of OLAP: Limitations and
Opportunities* (Utku Sirin and Anastasia Ailamaki, VLDB 2020).

The package is organised around the paper's methodology:

- :mod:`repro.hardware` models the Intel Broadwell / Skylake servers of the
  paper (caches, prefetchers, branch prediction, memory bandwidth,
  execution ports) and provides the Top-Down (TMAM) cycle containers.
- :mod:`repro.storage` provides column (DSM) table storage; DBMS R's row
  (NSM) page traffic is derived from the column dtypes.
- :mod:`repro.tpch` generates the TPC-H tables and defines the profiled
  queries (Q1, Q6, Q9, Q18).
- :mod:`repro.engines` implements the four profiled systems: a commercial
  row store stand-in ("DBMS R"), its column-store extension ("DBMS C"),
  a compiled engine (Typer) and a vectorized engine (Tectorwise).
- :mod:`repro.core` is the paper's contribution: a VTune-style
  micro-architectural profiler that turns measured execution work into
  CPU-cycle breakdowns and bandwidth utilisation figures.
- :mod:`repro.workloads` drives the paper's micro-benchmarks and TPC-H
  experiments; :mod:`repro.analysis` regenerates every table and figure.
- :mod:`repro.sql` parses the documented SQL dialect into a logical plan
  and lowers it onto the engines; :mod:`repro.serve` exposes the result
  as a concurrent query service (``python -m repro.serve``).
"""

from repro.hardware import BROADWELL, SKYLAKE, CycleBreakdown, PrefetcherConfig
from repro.core import (
    ExecutionContext,
    MicroArchProfiler,
    ProfileReport,
    WorkProfile,
)
from repro.engines import (
    ColumnStoreEngine,
    RowStoreEngine,
    TectorwiseEngine,
    TyperEngine,
)
from repro.sql import SqlError, compile_sql, execute_sql, parse_sql
from repro.tpch import generate_database

__version__ = "1.0.0"

__all__ = [
    "BROADWELL",
    "SKYLAKE",
    "ColumnStoreEngine",
    "CycleBreakdown",
    "ExecutionContext",
    "MicroArchProfiler",
    "PrefetcherConfig",
    "ProfileReport",
    "RowStoreEngine",
    "SqlError",
    "TectorwiseEngine",
    "TyperEngine",
    "WorkProfile",
    "compile_sql",
    "execute_sql",
    "generate_database",
    "parse_sql",
    "__version__",
]
