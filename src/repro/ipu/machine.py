"""IPU machine models (Graphcore GC200 and GC2).

All architecture constants trace to the paper's Table 1 or to public
microbenchmarking literature (Jia et al. 2019); the derived quantities
(clock-normalised rates) are computed, never hard-coded as outputs.

The performance-shaping parameters that could not be measured here (vertex
overhead cycles, exchange setup, host streaming efficiency) are explicit
fields with documented provenance, so ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import KiB, MiB

__all__ = ["IPUSpec", "GC200", "GC2"]


@dataclass(frozen=True)
class IPUSpec:
    """Architecture description of a single IPU processor."""

    name: str
    #: Number of IPU-Tiles (core + local SRAM each).
    n_tiles: int
    #: In-Processor-Memory per tile, bytes.
    tile_memory_bytes: int
    #: Core clock, Hz.
    clock_hz: float
    #: Hardware worker threads per tile (time-sliced, MIMD).
    threads_per_tile: int
    #: AMP (Accumulating Matrix Product) unit MACs/cycle/tile.  Only *dense
    #: matmul vertices* use this path — the architectural fact behind the
    #: paper's finding that butterfly gains little on the IPU.
    amp_macs_per_cycle: int
    #: FLOPs/cycle/tile for vectorised generic vertices (float32x2 SIMD).
    vector_flops_per_cycle: float
    #: FLOPs/cycle/tile for scalar (naive) vertices.
    scalar_flops_per_cycle: float
    #: Effective cycles per element for gather/strided generic codelets,
    #: e.g. the PopTorch lowering of a butterfly level (einsum over strided
    #: views compiles to address-arithmetic-heavy generic vertices).
    gather_cycles_per_element: float
    #: Exchange-fabric bytes/cycle receivable per tile (distance-free).
    exchange_bytes_per_cycle: float
    #: BSP sync + compute-set dispatch overhead, cycles.
    sync_cycles: int
    #: Exchange-phase setup cycles (program switch, address setup).
    exchange_setup_cycles: int
    #: Host <-> IPU streaming bandwidth, bytes/s (off-chip DDR path;
    #: Table 1 lists 20 GB/s peak, streaming efficiency is far lower in
    #: PopTorch because tensors are serialised per engine run — the paper's
    #: Note 4).
    host_bandwidth: float
    host_stream_efficiency: float
    #: Fixed host-side engine-run overhead per program execution, seconds
    #: (PopTorch step dispatch; dominates tiny problem sizes in Fig 6).
    engine_run_overhead_s: float
    #: Off-chip streaming-memory capacity, bytes.
    offchip_memory_bytes: int
    #: Peak FP32 FLOP/s from the datasheet (used for utilisation reports
    #: and cross-checked against n_tiles * clock * amp rate in tests).
    peak_flops_fp32: float
    # -- graph-compilation memory accounting (per PopVision observations:
    # memory scales with vertices, edges and compute sets, Fig 5) --
    vertex_state_bytes: int = 32
    edge_code_bytes: int = 12
    cs_control_bytes: int = 8
    codelet_code_bytes: int = 2 * KiB
    #: Memory reserved per tile for runtime/control (not usable by graphs).
    reserved_tile_bytes: int = 16 * KiB
    #: Host-side training-loop overhead per step (data pipeline, loss and
    #: metric handling, PopTorch step dispatch) — common to every method,
    #: which is why Table 4's cheap methods cluster near the baseline.
    host_step_overhead_s: float = 160e-6
    #: Extra receiver-side cycles to detect and re-request an ECC-failed
    #: exchange packet before the superstep's data is re-streamed (parity
    #: scrub + replay request; the exchange itself is re-run at full cost).
    exchange_ecc_retry_cycles: int = 64

    # -- derived ------------------------------------------------------------

    @property
    def total_memory_bytes(self) -> int:
        """Aggregate In-Processor-Memory (Table 1: ~900 MB for GC200)."""
        return self.n_tiles * self.tile_memory_bytes

    @property
    def vector_flops_per_second(self) -> float:
        """Peak generic-vertex FLOP/s."""
        return self.n_tiles * self.clock_hz * self.vector_flops_per_cycle

    @property
    def exchange_bandwidth_per_tile(self) -> float:
        """Exchange bytes/s receivable by one tile."""
        return self.exchange_bytes_per_cycle * self.clock_hz

    @property
    def exchange_bandwidth_total(self) -> float:
        """Aggregate exchange bytes/s across all tiles."""
        return self.n_tiles * self.exchange_bandwidth_per_tile

    @property
    def usable_tile_memory(self) -> int:
        """Tile memory available to compiled graphs."""
        return self.tile_memory_bytes - self.reserved_tile_bytes

    @property
    def effective_host_bandwidth(self) -> float:
        """Streaming bytes/s actually achieved by PopTorch-style I/O."""
        return self.host_bandwidth * self.host_stream_efficiency


#: Second-generation GC200 (the paper's device; Table 1 column 2).
GC200 = IPUSpec(
    name="GC200",
    n_tiles=1472,
    tile_memory_bytes=624 * KiB,  # 1472 x 624 KiB ~= 897 MiB ("900 MB")
    clock_hz=1.33e9,
    threads_per_tile=6,
    amp_macs_per_cycle=16,  # 1472 * 1.33 GHz * 32 flop = 62.7 TFLOP/s peak
    vector_flops_per_cycle=4.0,
    scalar_flops_per_cycle=0.27,
    gather_cycles_per_element=5.0,
    exchange_bytes_per_cycle=8.0,
    sync_cycles=700,
    exchange_setup_cycles=150,
    host_bandwidth=20e9,
    host_stream_efficiency=0.4,
    engine_run_overhead_s=10e-6,
    offchip_memory_bytes=64 * 1024 * MiB,
    peak_flops_fp32=62.5e12,
)

#: First-generation GC2 (for the generational comparisons in related work).
GC2 = IPUSpec(
    name="GC2",
    n_tiles=1216,
    tile_memory_bytes=256 * KiB,
    clock_hz=1.6e9,
    threads_per_tile=6,
    amp_macs_per_cycle=8,  # 1216 * 1.6 GHz * 16 flop ~= 31.1 TFLOP/s
    vector_flops_per_cycle=4.0,
    scalar_flops_per_cycle=0.27,
    gather_cycles_per_element=9.0,
    exchange_bytes_per_cycle=8.0,
    sync_cycles=700,
    exchange_setup_cycles=150,
    host_bandwidth=16e9,
    host_stream_efficiency=0.085,
    engine_run_overhead_s=10e-6,
    offchip_memory_bytes=0,
    peak_flops_fp32=31.1e12,
)
