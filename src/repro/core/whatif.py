"""What-if analysis: quantify the paper's *opportunities*.

The paper's title promises limitations **and opportunities**: stalls
would shrink with faster prefetchers (Section 9), more memory bandwidth
(Sections 3, 10), cheaper hashing (Sections 5-6) and better
branch handling (Sections 4, 7).  This module re-runs a measured
execution on hypothetical machines -- the same work profile, a modified
:class:`~repro.hardware.spec.ServerSpec` or
:class:`~repro.core.cyclemodel.CalibrationParams` -- and reports the
projected speedup, making those opportunities quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.engines.base import QueryResult
from repro.hardware.spec import ServerSpec
from repro.core.cyclemodel import CalibrationParams, ExecutionContext
from repro.core.profiler import MicroArchProfiler
from repro.core.report import ProfileReport


@dataclass(frozen=True)
class Scenario:
    """A named machine modification."""

    name: str
    description: str
    transform_spec: Callable[[ServerSpec], ServerSpec] = lambda spec: spec
    transform_params: Callable[[CalibrationParams], CalibrationParams] = (
        lambda params: params
    )


def _scale_bandwidth(spec: ServerSpec, factor: float) -> ServerSpec:
    bandwidth = replace(
        spec.bandwidth,
        per_core_seq_gbps=spec.bandwidth.per_core_seq_gbps * factor,
        per_core_rand_gbps=spec.bandwidth.per_core_rand_gbps * factor,
        per_socket_seq_gbps=spec.bandwidth.per_socket_seq_gbps * factor,
        per_socket_rand_gbps=spec.bandwidth.per_socket_rand_gbps * factor,
    )
    return replace(spec, bandwidth=bandwidth)


def _scale_l3(spec: ServerSpec, factor: float) -> ServerSpec:
    l3 = replace(spec.l3, size_bytes=int(spec.l3.size_bytes * factor))
    return replace(spec, l3=l3)


def _more_alus(spec: ServerSpec, extra: int) -> ServerSpec:
    ports = replace(
        spec.ports,
        n_ports=spec.ports.n_ports + extra,
        alu_ports=spec.ports.alu_ports + extra,
    )
    return replace(spec, ports=ports)


def _numa_remote(spec: ServerSpec) -> ServerSpec:
    """Cross-socket memory access: the interconnect cuts bandwidth and
    stretches the DRAM portion of the latency."""
    remote = _scale_bandwidth(spec, 0.7)
    l3 = replace(
        remote.l3, miss_latency_cycles=remote.l3.miss_latency_cycles * 1.6
    )
    return replace(remote, l3=l3)


#: Opportunity scenarios matching the paper's discussion.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "double-bandwidth",
            "2x per-core and per-socket memory bandwidth (Sections 3/10: "
            "sequential scans are bandwidth-limited).",
            transform_spec=lambda spec: _scale_bandwidth(spec, 2.0),
        ),
        Scenario(
            "perfect-prefetchers",
            "Prefetchers that fully keep up with the demand stream "
            "(Section 9).  With the default prefetchers already at ~95% "
            "coverage, the model shows almost no headroom here: once the "
            "prefetchers are on, the bandwidth roof is the wall.",
            transform_params=lambda params: replace(
                params, prefetch_residual_cycles=0.0
            ),
        ),
        Scenario(
            "low-latency-fp",
            "Single-cycle dependent FP adds (removes the serial "
            "aggregation-chain stalls behind Q1's Execution share).",
            transform_params=lambda params: replace(params, chain_op_latency=1.0),
        ),
        Scenario(
            "no-materialization",
            "Vector materialisation at zero cost (the fused-pipeline "
            "advantage Typer holds over Tectorwise, Sections 3/7).",
            transform_params=lambda params: replace(
                params, cached_access_stall=0.0, store_pressure_cycles=0.0
            ),
        ),
        Scenario(
            "quadruple-l3",
            "A 4x larger last-level cache (keeps join/group-by working "
            "sets resident, Sections 5-6).",
            transform_spec=lambda spec: _scale_l3(spec, 4.0),
        ),
        Scenario(
            "perfect-branch-prediction",
            "An oracle branch predictor (Sections 4/7: what predication "
            "buys, without the extra compute).",
            transform_params=lambda params: replace(params, branch_penalty=0.0),
        ),
        Scenario(
            "free-hashing",
            "Hash computation at plain-ALU cost (Sections 5-6: 'costly "
            "hash computations' saturate the multiply port).",
            transform_params=lambda params: params,  # see _FREE_HASH below
        ),
        Scenario(
            "double-mlp",
            "2x memory-level parallelism for random accesses (what the "
            "coroutine-interleaving work [13, 21] achieves in software).",
            transform_params=lambda params: replace(
                params,
                mlp_random_independent=params.mlp_random_independent * 2,
                mlp_random_dependent=params.mlp_random_dependent * 2,
            ),
        ),
        Scenario(
            "extra-alus",
            "Two extra ALU execution ports (Section 3: despite eight "
            "ports, arithmetic-heavy analytics saturates the ALUs).",
            transform_spec=lambda spec: _more_alus(spec, 2),
        ),
        Scenario(
            "numa-remote",
            "Run against the *other* socket's memory -- what the paper's "
            "numactl localisation avoids: ~30% less bandwidth and ~60% "
            "higher DRAM latency over the interconnect.",
            transform_spec=lambda spec: _numa_remote(spec),
        ),
    )
}


@dataclass(frozen=True)
class WhatIfResult:
    """Projected effect of one scenario on one execution."""

    scenario: Scenario
    baseline: ProfileReport
    projected: ProfileReport

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.projected.cycles if self.projected.cycles else float("inf")

    @property
    def stall_reduction(self) -> float:
        """Fraction of baseline stall cycles removed."""
        baseline = self.baseline.breakdown.stall_cycles
        if not baseline:
            return 0.0
        return 1.0 - self.projected.breakdown.stall_cycles / baseline


class WhatIfAnalyzer:
    """Replays measured work profiles on hypothetical machines."""

    def __init__(self, profiler: MicroArchProfiler):
        self.profiler = profiler

    def project(
        self,
        engine,
        result: QueryResult,
        scenario: Scenario | str,
        context: ExecutionContext | None = None,
    ) -> WhatIfResult:
        """Project one execution onto a scenario machine."""
        if isinstance(scenario, str):
            try:
                scenario = SCENARIOS[scenario]
            except KeyError:
                raise KeyError(
                    f"unknown scenario {scenario!r}; available: {sorted(SCENARIOS)}"
                ) from None
        baseline = self.profiler.profile(engine, result, context)
        spec = scenario.transform_spec(self.profiler.spec)
        params = scenario.transform_params(self.profiler.model.params)
        if scenario.name == "free-hashing":
            result = _without_hash_cost(result)
        modified = MicroArchProfiler(spec=spec, params=params)
        projected = modified.profile(engine, result, context)
        return WhatIfResult(scenario=scenario, baseline=baseline, projected=projected)

    def sweep(
        self,
        engine,
        result: QueryResult,
        scenarios=None,
        context: ExecutionContext | None = None,
    ) -> dict[str, WhatIfResult]:
        """Project one execution onto many scenarios."""
        names = scenarios or list(SCENARIOS)
        return {
            name: self.project(engine, result, name, context) for name in names
        }

    @staticmethod
    def best_opportunity(results: dict[str, WhatIfResult]) -> str:
        """Scenario with the largest projected speedup."""
        return max(results, key=lambda name: results[name].speedup)


def _without_hash_cost(result: QueryResult) -> QueryResult:
    """Copy of a result whose hash ops are demoted to plain ALU ops."""
    clone = result.copy()
    clone.work.alu_ops += clone.work.hash_ops
    clone.work.hash_ops = 0.0
    return clone
