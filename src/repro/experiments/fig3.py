"""Fig 3 — exchange latency and bandwidth vs message size and tile distance.

The paper measures transfers between a neighbouring tile pair (0, 1) and a
distant pair (0, 644) and finds identical curves — Observation 1.  The
sweep here regenerates both series from the exchange model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.reporting import Table
from repro.ipu.exchange import ExchangeModel
from repro.ipu.machine import GC200

__all__ = ["NEIGHBOUR_PAIR", "DISTANT_PAIR", "default_sizes", "run", "render"]

#: The paper's tile pairs.
NEIGHBOUR_PAIR = (0, 1)
DISTANT_PAIR = (0, 644)


def default_sizes() -> list[int]:
    """Message sizes 4 B .. 4 MiB, powers of two."""
    return [4 << i for i in range(21)]


@dataclass(frozen=True)
class Fig3Row:
    """One sweep point: both pairs at one message size."""

    n_bytes: int
    neighbour_latency_s: float
    distant_latency_s: float
    neighbour_bandwidth: float
    distant_bandwidth: float

    @property
    def distance_independent(self) -> bool:
        """Observation 1 for this point."""
        return self.neighbour_latency_s == self.distant_latency_s


def run() -> list[Fig3Row]:
    """Sweep both tile pairs over the message sizes."""
    model = ExchangeModel(GC200)
    rows = []
    for size in default_sizes():
        near = model.measure(size, *NEIGHBOUR_PAIR)
        far = model.measure(size, *DISTANT_PAIR)
        rows.append(
            Fig3Row(
                n_bytes=size,
                neighbour_latency_s=near.latency_s,
                distant_latency_s=far.latency_s,
                neighbour_bandwidth=near.bandwidth_bytes_per_s,
                distant_bandwidth=far.bandwidth_bytes_per_s,
            )
        )
    return rows


def render() -> str:
    """Text rendering of the Fig 3 series."""
    table = Table(
        title=(
            "Fig 3: GC200 exchange latency/bandwidth, tile pairs "
            f"{NEIGHBOUR_PAIR} vs {DISTANT_PAIR}"
        ),
        columns=[
            "bytes",
            "lat near (us)",
            "lat far (us)",
            "BW near (GB/s)",
            "BW far (GB/s)",
            "distance-free",
        ],
    )
    for row in run():
        table.add_row(
            row.n_bytes,
            row.neighbour_latency_s * 1e6,
            row.distant_latency_s * 1e6,
            row.neighbour_bandwidth / 1e9,
            row.distant_bandwidth / 1e9,
            row.distance_independent,
        )
    return table.render()

