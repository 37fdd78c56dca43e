"""Fig 6 — torch.nn.Linear vs butterfly vs pixelfly layer execution time.

Three panels like the paper: GPU with tensor cores off, GPU with tensor
cores on, and the IPU (PopTorch mode, which inseparably includes host data
movement — the paper's stated measurement caveat).  Square problems: an
``N x N`` layer applied to an ``N``-row batch.

Headline shapes preserved (see EXPERIMENTS.md for measured values):
GPU break-even for butterfly near ``N = 2**11`` with an order-of-magnitude
worst-case slowdown at small N; IPU break-even near ``N = 2**10`` with only
~1.4x worst-case slowdown and ~1.3-1.6x best-case speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import nn
from repro.bench.parallel import run_grid
from repro.guard import GuardPolicy
from repro.bench.reporting import Table
from repro.core.butterfly import butterfly_param_count
from repro.core.pixelfly import pixelfly_param_count
from repro.gpu.machine import A30
from repro.gpu.simulator import GPUDevice, GPUOutOfMemoryError
from repro.gpu.torchsim import GPUModule
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule

__all__ = [
    "Fig6Row",
    "MemoryLimitRow",
    "default_sizes",
    "layer_times",
    "memory_limits",
    "render_memory_limits",
    "run",
    "render",
]

#: Fig 6's lightweight pixelfly configuration (few stride bands, rank 1) —
#: the layer-benchmark default, unlike Table 4's parameter-matched config.
FIG6_PIXELFLY = dict(block_size=32, butterfly_size=4, rank=1)

#: The memory-limit probe tries ``N = 2**7 .. 2**LIMIT_MAX_EXP`` at a
#: fixed batch of ``LIMIT_BATCH`` rows (see :func:`memory_limits`).
LIMIT_MAX_EXP = 18
LIMIT_BATCH = 256


def default_sizes() -> list[int]:
    """N = 2**7 .. 2**12 (2**13 is available but slow to plan)."""
    return [1 << e for e in range(7, 13)]


@dataclass(frozen=True)
class Fig6Row:
    """Layer forward times at one size on one device panel."""

    device: str  # 'gpu_notc' | 'gpu_tc' | 'ipu'
    n: int
    linear_s: float
    butterfly_s: float
    pixelfly_s: float

    @property
    def butterfly_speedup(self) -> float:
        """linear / butterfly (>1 means butterfly wins)."""
        return self.linear_s / self.butterfly_s

    @property
    def pixelfly_speedup(self) -> float:
        """linear / pixelfly (>1 means pixelfly wins)."""
        return self.linear_s / self.pixelfly_s


def _layers(n: int):
    linear = nn.Linear(n, n, bias=False, seed=0)
    butterfly = nn.ButterflyLinear(n, n, bias=False, seed=0)
    pixelfly = nn.PixelflyLinear(n, bias=False, seed=0, **FIG6_PIXELFLY)
    return linear, butterfly, pixelfly


def layer_times(device: str, n: int) -> Fig6Row:
    """Forward time of the three layers at size *n* on one panel."""
    linear, butterfly, pixelfly = _layers(n)
    if device == "ipu":
        times = [
            IPUModule(layer, in_features=n, batch=n, spec=GC200, host_io=True)
            .forward_time()
            for layer in (linear, butterfly, pixelfly)
        ]
    elif device in ("gpu_notc", "gpu_tc"):
        tc = device == "gpu_tc"
        times = [
            GPUModule(
                layer, in_features=n, batch=n, tensor_cores=tc, spec=A30
            ).forward_time()
            for layer in (linear, butterfly, pixelfly)
        ]
    else:
        raise ValueError(f"unknown device panel {device!r}")
    return Fig6Row(
        device=device,
        n=n,
        linear_s=times[0],
        butterfly_s=times[1],
        pixelfly_s=times[2],
    )


def _layer_times_worker(config: tuple[str, int], seed_seq) -> Fig6Row:
    """Grid worker: one (device panel, size) cell."""
    return layer_times(*config)


def run(
    sizes: list[int] | None = None,
    devices: tuple[str, ...] = ("gpu_notc", "gpu_tc", "ipu"),
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> list[Fig6Row]:
    """All three panels across the size sweep."""
    configs = [
        (device, n) for device in devices for n in sizes or default_sizes()
    ]
    rows = run_grid(
        _layer_times_worker, configs, jobs=jobs, guard=guard, name="fig6"
    )
    return [row for row in rows if row is not None]


@dataclass(frozen=True)
class MemoryLimitRow:
    """Largest runnable layer size per device/layer type."""

    device: str
    linear_max: int
    butterfly_max: int
    pixelfly_max: int


def memory_limits() -> list[MemoryLimitRow]:
    """The Fig 6 footnote claim: Linear "reaches its limit earlier".

    Finds the largest ``N = 2**e`` at which each layer's forward pass is
    runnable at a fixed batch (256, Dao et al.'s setting — at batch = N the
    activations dominate and every layer hits the same wall): on the GPU,
    the dense weight must fit the 24 GB device; on the IPU, the compiled
    forward graph must fit In-Processor-Memory.  Structured layers never
    materialise the ``N x N`` weight, so they keep going long after the
    dense layer OOMs.
    """
    max_exp, batch = LIMIT_MAX_EXP, LIMIT_BATCH
    device = GPUDevice(A30)
    rows = []

    def gpu_fits(layer_kind: str, n: int) -> bool:
        # Weight + activations (+ cuBLAS workspace for the dense layer).
        act = 2 * 4 * batch * n  # input + output
        if layer_kind == "linear":
            try:
                device.check_fit(
                    device.matmul_workspace_bytes(batch, n, n) + act
                )
                return True
            except GPUOutOfMemoryError:
                return False
        if layer_kind == "butterfly":
            weight = 4 * butterfly_param_count(n)
        else:  # pixelfly
            weight = 4 * pixelfly_param_count(n, 32, 4, 1)
        try:
            device.check_fit(weight + act)
            return True
        except GPUOutOfMemoryError:
            return False

    def largest(fits) -> int:
        best = 0
        for e in range(7, max_exp + 1):
            n = 1 << e
            if fits(n):
                best = n
            else:
                break
        return best

    rows.append(
        MemoryLimitRow(
            device="gpu",
            linear_max=largest(lambda n: gpu_fits("linear", n)),
            butterfly_max=largest(lambda n: gpu_fits("butterfly", n)),
            pixelfly_max=largest(lambda n: gpu_fits("pixelfly", n)),
        )
    )

    def ipu_fits(layer_factory, n: int) -> bool:
        module = IPUModule(
            layer_factory(n), in_features=n, batch=batch, spec=GC200
        )
        return module.fits()

    ipu_max_exp = min(max_exp, 14)  # graph construction cost grows fast
    def largest_ipu(factory) -> int:
        best = 0
        for e in range(7, ipu_max_exp + 1):
            n = 1 << e
            if ipu_fits(factory, n):
                best = n
            else:
                break
        return best

    rows.append(
        MemoryLimitRow(
            device="ipu",
            linear_max=largest_ipu(
                lambda n: nn.Linear(n, n, bias=False, seed=0)
            ),
            butterfly_max=largest_ipu(
                lambda n: nn.ButterflyLinear(n, n, bias=False, seed=0)
            ),
            pixelfly_max=largest_ipu(
                lambda n: nn.PixelflyLinear(
                    n, bias=False, seed=0, **FIG6_PIXELFLY
                )
            ),
        )
    )
    return rows


def render_memory_limits() -> str:
    """Text rendering of the memory-limit probe (Fig 6 footnote claim)."""
    table = Table(
        title=(
            "Fig 6 footnote: largest runnable layer size (batch 256) — "
            "'torch.nn.Linear reaches its limit earlier'"
        ),
        columns=["device", "linear max N", "butterfly max N", "pixelfly max N"],
    )
    for row in memory_limits():
        table.add_row(
            row.device, row.linear_max, row.butterfly_max, row.pixelfly_max
        )
    return table.render()


def render(
    sizes: list[int] | None = None,
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> str:
    """Text rendering of the three Fig 6 panels."""
    rows = run(sizes, jobs=jobs, guard=guard)
    out = []
    for device, label in [
        ("gpu_notc", "GPU, tensor cores OFF"),
        ("gpu_tc", "GPU, tensor cores ON"),
        ("ipu", "IPU (PopTorch, incl. host streaming)"),
    ]:
        table = Table(
            title=f"Fig 6 [{label}]: layer forward time",
            columns=[
                "N",
                "linear (ms)",
                "butterfly (ms)",
                "pixelfly (ms)",
                "bf speedup",
                "pxf speedup",
            ],
        )
        for row in rows:
            if row.device != device:
                continue
            table.add_row(
                row.n,
                row.linear_s * 1e3,
                row.butterfly_s * 1e3,
                row.pixelfly_s * 1e3,
                row.butterfly_speedup,
                row.pixelfly_speedup,
            )
        out.append(table.render())
    return "\n\n".join(out)

