"""Memory-system model: latency, bandwidth and contention.

Provides the quantities the paper obtains from Intel's Memory Latency
Checker (MLC [10]): idle access latencies per cache level and maximum
single-core / per-socket bandwidths for sequential and random streams
(Table 1), plus the queueing behaviour used by the cycle model when
demand approaches the bandwidth roof.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.spec import ServerSpec


@dataclass(frozen=True)
class LatencyReport:
    """Idle load-to-use latencies, in cycles and nanoseconds."""

    l1_cycles: float
    l2_cycles: float
    l3_cycles: float
    memory_cycles: float
    clock_ghz: float

    def as_ns(self, cycles: float) -> float:
        return cycles / self.clock_ghz

    @property
    def memory_ns(self) -> float:
        return self.as_ns(self.memory_cycles)


@dataclass(frozen=True)
class BandwidthReport:
    """Maximum attainable bandwidths in GB/s (the MLC numbers)."""

    per_core_sequential: float
    per_core_random: float
    per_socket_sequential: float
    per_socket_random: float


class MemorySystem:
    """Bandwidth/latency behaviour of one socket of a server.

    The effective service rate degrades smoothly as offered load
    approaches the roof: latency under load is scaled by an M/M/1-style
    factor capped to keep the model stable at saturation.
    """

    #: Latency inflation cap at full bandwidth utilisation.
    MAX_QUEUE_FACTOR = 3.0

    def __init__(self, spec: ServerSpec):
        self.spec = spec

    def max_bandwidth_gbps(self, access_pattern: str, cores: int = 1) -> float:
        """Maximum attainable bandwidth for ``cores`` cooperating cores.

        Scales linearly with cores until the socket roof is reached —
        exactly the shape of Figures 29 and 30's MAX line.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        per_core = self.spec.bandwidth.per_core(access_pattern)
        per_socket = self.spec.bandwidth.per_socket(access_pattern)
        return min(per_core * cores, per_socket)

    def utilization(self, demand_gbps: float, access_pattern: str, cores: int = 1) -> float:
        """Offered load as a fraction of the attainable roof (can be >1)."""
        if demand_gbps < 0:
            raise ValueError("demand must be non-negative")
        return demand_gbps / self.max_bandwidth_gbps(access_pattern, cores)

    def queueing_factor(self, utilization: float) -> float:
        """Latency inflation under load.

        An M/M/1-like ``1 / (1 - rho)`` curve, linearised near zero and
        capped at :data:`MAX_QUEUE_FACTOR` so that saturated streams see
        a finite (but painful) latency blow-up.
        """
        if utilization < 0:
            raise ValueError("utilization must be non-negative")
        rho = min(utilization, 0.999)
        factor = 1.0 / (1.0 - rho * (1.0 - 1.0 / self.MAX_QUEUE_FACTOR))
        return min(factor, self.MAX_QUEUE_FACTOR)

    def loaded_latency_cycles(
        self, demand_gbps: float, access_pattern: str, cores: int = 1
    ) -> float:
        """DRAM load-to-use latency under the given offered load."""
        rho = min(self.utilization(demand_gbps, access_pattern, cores), 1.0)
        return self.spec.memory_latency_cycles * self.queueing_factor(rho)

    def transfer_cycles(
        self, n_bytes: float, access_pattern: str, cores: int = 1, demand_gbps: float | None = None
    ) -> float:
        """Cycles needed to move ``n_bytes`` at the attainable roof.

        If ``demand_gbps`` is given and below the roof, the transfer is
        paced by the demand instead (the stream is not bandwidth-bound).
        """
        roof = self.max_bandwidth_gbps(access_pattern, cores)
        rate_gbps = roof if demand_gbps is None else min(demand_gbps, roof)
        if rate_gbps <= 0:
            raise ValueError("transfer rate must be positive")
        seconds = n_bytes / (rate_gbps * 1e9)
        return seconds * self.spec.cycles_per_second

    def compression_speedup(
        self,
        raw_bytes: float,
        encoded_bytes: float,
        access_pattern: str = "sequential",
        cores: int = 1,
    ) -> float:
        """Upper-bound speedup of a *bandwidth-bound* transfer when the
        stream shrinks from ``raw_bytes`` to ``encoded_bytes``
        (compressed column widths, :mod:`repro.storage.encoding`).

        A scan pinned at the roof gains the full byte ratio; operators
        that are not bandwidth-bound gain less, which the cycle model
        decides when fed a profile rewritten via
        ``WorkProfile.with_sequential_scaled``.
        """
        if raw_bytes < 0 or encoded_bytes <= 0:
            raise ValueError("byte volumes must be positive")
        return self.transfer_cycles(
            raw_bytes, access_pattern, cores
        ) / self.transfer_cycles(encoded_bytes, access_pattern, cores)

    def pruning_speedup(
        self,
        total_bytes: float,
        kept_bytes: float,
        access_pattern: str = "sequential",
        cores: int = 1,
    ) -> float:
        """Upper-bound speedup of a *bandwidth-bound* scan when zone-map
        pruning (:mod:`repro.core.pruning`) shrinks the streamed volume
        from ``total_bytes`` to ``kept_bytes``.

        Same shape as :meth:`compression_speedup` -- a scan at the roof
        gains the full byte ratio; the two compose multiplicatively when
        pruning skips chunks of already-compressed columns.
        """
        if total_bytes < 0 or kept_bytes <= 0:
            raise ValueError("byte volumes must be positive")
        return self.transfer_cycles(
            total_bytes, access_pattern, cores
        ) / self.transfer_cycles(kept_bytes, access_pattern, cores)


class MemoryLatencyChecker:
    """Reproduces the MLC measurements reported in Table 1 directly from
    the machine model (the paper uses the real tool to obtain cache
    latencies and maximum bandwidths)."""

    def __init__(self, spec: ServerSpec):
        self.spec = spec
        self.memory = MemorySystem(spec)

    def measure_latencies(self) -> LatencyReport:
        spec = self.spec
        return LatencyReport(
            l1_cycles=spec.l1_access_cycles,
            l2_cycles=spec.l2_hit_latency,
            l3_cycles=spec.l3_hit_latency,
            memory_cycles=spec.memory_latency_cycles,
            clock_ghz=spec.clock_ghz,
        )

    def measure_bandwidths(self) -> BandwidthReport:
        return BandwidthReport(
            per_core_sequential=self.memory.max_bandwidth_gbps("sequential", 1),
            per_core_random=self.memory.max_bandwidth_gbps("random", 1),
            per_socket_sequential=self.memory.max_bandwidth_gbps(
                "sequential", self.spec.cores_per_socket
            ),
            per_socket_random=self.memory.max_bandwidth_gbps(
                "random", self.spec.cores_per_socket
            ),
        )

    def table1_rows(self) -> dict[str, str]:
        """Render the derived rows of Table 1 for the configured server."""
        spec = self.spec
        latency = self.measure_latencies()
        bandwidth = self.measure_bandwidths()
        return {
            "Processor": spec.name,
            "#sockets": str(spec.sockets),
            "#cores per socket": str(spec.cores_per_socket),
            "Hyper-threading": "On" if spec.hyper_threading else "Off",
            "Turbo-boost": "On" if spec.turbo_boost else "Off",
            "Clock speed": f"{spec.clock_ghz:.2f}GHz",
            "Per-core bandwidth": (
                f"{bandwidth.per_core_sequential:.0f}GB/s (sequential) / "
                f"{bandwidth.per_core_random:.0f}GB/s (random)"
            ),
            "Per-socket bandwidth": (
                f"{bandwidth.per_socket_sequential:.0f}GB/s (sequential) / "
                f"{bandwidth.per_socket_random:.0f}GB/s (random)"
            ),
            "L1I / L1D (per core)": (
                f"{spec.l1i.size_bytes // 1024}KB / {spec.l1d.size_bytes // 1024}KB, "
                f"{spec.l1d.miss_latency_cycles:.0f}-cycle miss latency"
            ),
            "L2 (per core)": (
                f"{spec.l2.size_bytes // 1024}KB, "
                f"{spec.l2.miss_latency_cycles:.0f}-cycle miss latency"
            ),
            "L3 (shared)": (
                f"{'(inclusive) ' if spec.l3.inclusive else ''}"
                f"{spec.l3.size_bytes // (1024 * 1024)}MB, "
                f"{spec.l3.miss_latency_cycles:.0f}-cycle miss latency"
            ),
            "Memory": f"{spec.memory_bytes // (1024 ** 3)}GB",
            "Memory latency": f"{latency.memory_ns:.0f}ns",
        }
