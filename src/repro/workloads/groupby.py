"""Group-by micro-benchmark driver.

Section 2 mentions a group-by micro-benchmark that behaves like the
join at the micro-architectural level; Section 6 compares the *hash
chain statistics* of group-by and join hash tables: group-by chains
are much more irregular (lengths 0-7, mean 0.23, std 0.5) than join
chains (lengths 0-1, mean 0.44, std 0.49) because groups sharing a
common grouping attribute collide more than evenly-spread keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import JOIN_SPECS, groupby_table
from repro.engines.hashtable import ChainStats
from repro.engines.morsel import key_table
from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport
from repro.workloads.sweep import profile_sweep


def run_groupby(
    db, engines, profiler: MicroArchProfiler
) -> dict[str, ProfileReport]:
    """Profile the group-by micro-benchmark on every engine."""
    reports = profile_sweep(
        engines, profiler, (None,),
        lambda engine, _: engine.run_groupby(db),
        "the group-by result",
    )
    return {name: per_argument[None] for name, per_argument in reports.items()}


@dataclass(frozen=True)
class ChainComparison:
    """Side-by-side hash-chain statistics (the Section 6 table)."""

    join: ChainStats
    groupby: ChainStats

    @property
    def groupby_more_irregular(self) -> bool:
        """The paper's observation: group-by chains are longer-tailed
        and relatively more dispersed than join chains."""
        if not self.join.mean or not self.groupby.mean:
            return False
        join_cv = self.join.std / self.join.mean
        groupby_cv = self.groupby.std / self.groupby.mean
        return self.groupby.max > self.join.max and groupby_cv > join_cv


def hash_chain_comparison(db) -> ChainComparison:
    """The chain-length distributions of the hash tables the engines
    probe: the large join's build side and the group-by
    micro-benchmark's table."""
    spec = JOIN_SPECS["large"]
    join_table = key_table(db, spec.build_table, spec.build_key)
    return ChainComparison(
        join=join_table.chain_stats(), groupby=groupby_table(db).chain_stats()
    )
