"""Cost-model ablations: which mechanisms produce the paper's shapes?

DESIGN.md commits to assembling every reported time from architecture
constants, never hard-coding outputs.  These ablations demonstrate it by
switching individual mechanisms off (or on) and watching the figures move:

* **Host streaming off** — the paper states *"We assume that without data
  movement, the following performance differences would be more drastic."*
  Removing the PopTorch host streams from the Fig 6 IPU panel should make
  butterfly's large-N speedup much larger.  It does.
* **Hypothetical AMP butterfly codelet** — the paper's "possible
  optimizations for butterfly on the IPU": if a fused butterfly vertex
  could drive the AMP pipeline instead of the gather path, the levels
  would cost ``8 n/2 / amp_rate`` cycles.  Quantifies the headroom a
  hand-written Poplar codelet could unlock.
* **Sync-cost sensitivity** — the per-compute-set BSP sync drives the
  small-N degradation of multi-superstep layers; sweeping it moves the
  worst-case exactly as the model predicts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro import nn
from repro.bench.reporting import Table
from repro.ipu.machine import GC200, IPUSpec
from repro.ipu.poptorch import IPUModule
from repro.ipu.vertices import (
    CODELETS,
    VERTEX_OVERHEAD_CYCLES,
    register_codelet,
)

__all__ = [
    "streaming_ablation",
    "amp_butterfly_ablation",
    "sync_sensitivity",
    "render",
]

#: Sizes the AMP-codelet ablation re-times.
AMP_SIZES = (1024, 4096)
#: BSP sync costs (cycles) the sensitivity sweep tries.
SYNC_VALUES = (100, 700, 3000)


def _bf_speedup(n: int, spec: IPUSpec, host_io: bool) -> float:
    linear = IPUModule(
        nn.Linear(n, n, bias=False, seed=0), n, n, spec=spec,
        host_io=host_io,
    ).forward_time()
    butterfly = IPUModule(
        nn.ButterflyLinear(n, n, bias=False, seed=0), n, n, spec=spec,
        host_io=host_io,
    ).forward_time()
    return linear / butterfly


@dataclass(frozen=True)
class StreamingAblationRow:
    n: int
    speedup_with_streaming: float
    speedup_without_streaming: float

    @property
    def more_drastic(self) -> bool:
        """The paper's prediction, per size."""
        return self.speedup_without_streaming > self.speedup_with_streaming


def streaming_ablation(
    sizes: tuple[int, ...] = (1024, 2048, 4096),
) -> list[StreamingAblationRow]:
    """Fig 6 IPU panel with and without PopTorch host streaming."""
    return [
        StreamingAblationRow(
            n=n,
            speedup_with_streaming=_bf_speedup(n, GC200, host_io=True),
            speedup_without_streaming=_bf_speedup(n, GC200, host_io=False),
        )
        for n in sizes
    ]


@dataclass(frozen=True)
class AmpButterflyRow:
    n: int
    stock_speedup: float
    amp_codelet_speedup: float

    @property
    def headroom(self) -> float:
        """Factor a fused AMP butterfly codelet would add."""
        return self.amp_codelet_speedup / self.stock_speedup


def amp_butterfly_ablation() -> list[AmpButterflyRow]:
    """What if a fused butterfly codelet could drive the AMP pipeline?

    Temporarily replaces the ButterflyStage cycle model with an AMP-rate
    one (8 flops per pair at ``amp_macs_per_cycle`` MACs/cycle) and
    re-times the Fig 6 IPU sweep.
    """
    stock = CODELETS["ButterflyStage"]

    def amp_cycles(vertex, s):
        n_pairs = vertex.params["n_pairs"]
        return VERTEX_OVERHEAD_CYCLES + (
            4.0 * n_pairs / s.amp_macs_per_cycle
        )

    rows = []
    try:
        for n in AMP_SIZES:
            # host_io off: isolate the compute headroom (streaming would
            # otherwise mask it — see Ablation 1).
            stock_speedup = _bf_speedup(n, GC200, host_io=False)
            register_codelet(dataclasses.replace(stock, cycles=amp_cycles))
            amp_speedup = _bf_speedup(n, GC200, host_io=False)
            register_codelet(stock)
            rows.append(
                AmpButterflyRow(
                    n=n,
                    stock_speedup=stock_speedup,
                    amp_codelet_speedup=amp_speedup,
                )
            )
    finally:
        register_codelet(stock)
    return rows


@dataclass(frozen=True)
class SyncSensitivityRow:
    sync_cycles: int
    small_n_degradation: float  # butterfly slowdown at N=128


def sync_sensitivity() -> list[SyncSensitivityRow]:
    """Small-N butterfly degradation as a function of BSP sync cost."""
    rows = []
    for sync in SYNC_VALUES:
        tweaked = dataclasses.replace(GC200, sync_cycles=sync)
        rows.append(
            SyncSensitivityRow(
                sync_cycles=sync,
                small_n_degradation=1.0
                / _bf_speedup(128, tweaked, host_io=True),
            )
        )
    return rows


def render() -> str:
    """Text rendering of all three ablations."""
    out = []

    t1 = Table(
        title=(
            "Ablation 1: IPU butterfly speedup with/without host streaming "
            '(the paper: "without data movement the differences would be '
            'more drastic")'
        ),
        columns=["N", "with streaming", "without streaming", "more drastic"],
    )
    for row in streaming_ablation():
        t1.add_row(
            row.n,
            f"{row.speedup_with_streaming:.2f}x",
            f"{row.speedup_without_streaming:.2f}x",
            row.more_drastic,
        )
    out.append(t1.render())

    t2 = Table(
        title=(
            "Ablation 2: hypothetical AMP-capable butterfly codelet "
            "(the paper's 'possible optimizations')"
        ),
        columns=["N", "stock speedup", "AMP-codelet speedup", "headroom"],
    )
    for row in amp_butterfly_ablation():
        t2.add_row(
            row.n,
            f"{row.stock_speedup:.2f}x",
            f"{row.amp_codelet_speedup:.2f}x",
            f"{row.headroom:.2f}x",
        )
    out.append(t2.render())

    t3 = Table(
        title="Ablation 3: BSP sync cost vs small-N butterfly degradation",
        columns=["sync cycles", "slowdown at N=128"],
    )
    for row in sync_sensitivity():
        t3.add_row(row.sync_cycles, f"{row.small_n_degradation:.2f}x")
    out.append(t3.render())

    return "\n\n".join(out)

