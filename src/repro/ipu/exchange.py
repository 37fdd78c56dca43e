"""IPU-Exchange fabric model (paper Section 3.1, Fig 3, Observation 1).

The defining property of the exchange is that inter-tile transfer cost
depends on message size but *not* on the physical distance between tiles —
the fabric is a synchronous, compiled, all-to-all crossbar.  The model
therefore costs a transfer as

    ``t(bytes) = (setup_cycles + ceil(bytes / bytes_per_cycle)) / clock``

with no distance term; :func:`repro.experiments.fig3` demonstrates the flat
curves for the paper's neighbouring (0, 1) and distant (0, 644) tile pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ipu.machine import IPUSpec

__all__ = ["ExchangeModel", "TransferMeasurement"]


@dataclass(frozen=True)
class TransferMeasurement:
    """One point of a Fig 3 latency/bandwidth sweep."""

    src_tile: int
    dst_tile: int
    n_bytes: int
    latency_s: float

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Achieved bandwidth (bytes / latency)."""
        return self.n_bytes / self.latency_s if self.latency_s > 0 else 0.0


class ExchangeModel:
    """Cost model of the on-chip exchange fabric."""

    def __init__(self, spec: IPUSpec) -> None:
        self.spec = spec

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.spec.n_tiles:
            raise ValueError(
                f"tile {tile} out of range [0, {self.spec.n_tiles})"
            )

    def transfer_cycles(self, n_bytes: int) -> int:
        """Cycles to move *n_bytes* into one tile (setup + streaming)."""
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if n_bytes == 0:
            return 0
        return self.spec.exchange_setup_cycles + math.ceil(
            n_bytes / self.spec.exchange_bytes_per_cycle
        )

    def transfer_time(
        self, n_bytes: int, src_tile: int = 0, dst_tile: int = 1
    ) -> float:
        """Seconds to move *n_bytes* between two tiles.

        ``src_tile``/``dst_tile`` are validated but do not affect the cost:
        that independence *is* Observation 1.
        """
        self._check_tile(src_tile)
        self._check_tile(dst_tile)
        if src_tile == dst_tile:
            # Local copy: no exchange setup, pure SRAM streaming.
            return math.ceil(
                n_bytes / self.spec.exchange_bytes_per_cycle
            ) / self.spec.clock_hz
        return self.transfer_cycles(n_bytes) / self.spec.clock_hz

    def measure(
        self, n_bytes: int, src_tile: int, dst_tile: int
    ) -> TransferMeasurement:
        """Produce a Fig 3 style measurement record."""
        return TransferMeasurement(
            src_tile=src_tile,
            dst_tile=dst_tile,
            n_bytes=n_bytes,
            latency_s=self.transfer_time(n_bytes, src_tile, dst_tile),
        )

    def ecc_scrub_time(self) -> float:
        """Receiver-side cost of detecting an ECC-failed packet.

        Charged once per corrupted exchange before the re-transfer: the
        tile scrubs the parity failure and issues a replay request.  The
        re-transfer itself is charged separately at the normal rate.
        """
        return self.spec.exchange_ecc_retry_cycles / self.spec.clock_hz

    def gather_time(self, bytes_per_tile: dict[int, int]) -> float:
        """Exchange-phase time when several tiles receive concurrently.

        The BSP exchange phase ends when the most-loaded tile has received
        all its data; tiles stream in parallel.
        """
        if not bytes_per_tile:
            return 0.0
        worst = max(bytes_per_tile.values())
        return self.transfer_cycles(worst) / self.spec.clock_hz
