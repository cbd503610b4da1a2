"""Selection micro-benchmark driver (Sections 4 and 7).

The projection query of degree four behind three predicates over
l_shipdate, l_commitdate and l_receiptdate, with per-predicate
selectivity swept over 10%, 50% and 90%; Section 7 compares the
branched and predicated (branch-free) variants.
"""

from __future__ import annotations

from repro.engines.base import SELECTION_SELECTIVITIES, Engine
from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport
from repro.workloads.sweep import profile_sweep


def run_selection_sweep(
    db,
    engines,
    profiler: MicroArchProfiler,
    selectivities=SELECTION_SELECTIVITIES,
    predicated: bool = False,
    simd: bool = False,
) -> dict[str, dict[float, ProfileReport]]:
    """Profile every engine at every selectivity.

    Returns ``{engine name: {selectivity: ProfileReport}}`` with result
    values cross-checked across engines.
    """
    return profile_sweep(
        engines, profiler, selectivities,
        lambda engine, selectivity: engine.run_selection(
            db, selectivity, predicated=predicated, simd=simd
        ),
        "selection {:.0%}",
    )


def run_predication_comparison(
    db,
    engine: Engine,
    profiler: MicroArchProfiler,
    selectivities=SELECTION_SELECTIVITIES,
) -> dict[float, dict[str, ProfileReport]]:
    """Figures 17-21: branched vs branch-free selection per selectivity.

    Returns ``{selectivity: {"branched": report, "predicated": report}}``.
    """
    comparison: dict[float, dict[str, ProfileReport]] = {}
    for selectivity in selectivities:
        branched = engine.run_selection(db, selectivity, predicated=False)
        predicated = engine.run_selection(db, selectivity, predicated=True)
        if branched.value != predicated.value:
            raise AssertionError(
                f"{engine.name} branched/predicated results diverge at "
                f"{selectivity:.0%}"
            )
        comparison[selectivity] = {
            "branched": profiler.profile(engine, branched),
            "predicated": profiler.profile(engine, predicated),
        }
    return comparison
