"""GC2 vs GC200: does the paper's story survive an IPU generation?

The paper positions itself against GC2-era related work: *"a prime
question at hand is to which extent previous findings hold true for the
current generation."*  This driver answers it inside the simulator: the
same benchmarks on both machine models (first-generation GC2: 1216 tiles x
256 KiB, ~31 TFLOP/s; second-generation GC200: 1472 x 624 KiB, ~62.5
TFLOP/s), showing which conclusions are generational and which are
architectural.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import nn
from repro.bench.flops import gflops
from repro.bench.reporting import Table
from repro.ipu.compiler import compile_graph
from repro.ipu.machine import GC2, GC200, IPUSpec
from repro.ipu.poplin import build_matmul_graph, matmul_report
from repro.ipu.poptorch import IPUModule
from repro.utils import MiB

__all__ = ["GenerationRow", "run", "render", "largest_fitting_matmul"]

#: :func:`largest_fitting_matmul` searches ``N = 2**5 .. 2**MAX_EXP``.
MAX_EXP = 14


def largest_fitting_matmul(spec: IPUSpec) -> int:
    """Largest square N = 2**e whose poplin graph fits tile memory."""
    best = 0
    for e in range(5, MAX_EXP + 1):
        n = 1 << e
        graph, _ = build_matmul_graph(spec, n, n, n)
        if compile_graph(graph, spec, check_fit=False).memory.fits:
            best = n
        else:
            break
    return best


@dataclass(frozen=True)
class GenerationRow:
    """One device generation's headline numbers."""

    spec: IPUSpec
    poplin_gflops_1024: float
    naive_gflops_1024: float
    butterfly_step_s: float
    linear_step_s: float
    largest_matmul: int

    @property
    def butterfly_vs_linear(self) -> float:
        """Training-step ratio butterfly/linear (same SHL, batch 50)."""
        return self.butterfly_step_s / self.linear_step_s


def _shl(layer: nn.Module) -> nn.Module:
    return nn.Sequential(layer, nn.ReLU(), nn.Linear(1024, 10, seed=1))


def run(specs: tuple[IPUSpec, ...] = (GC2, GC200)) -> list[GenerationRow]:
    """Evaluate the generational comparison on each spec."""
    rows = []
    for spec in specs:
        poplin = matmul_report(spec, 1024, 1024, 1024, check_fit=False)
        naive = matmul_report(
            spec, 1024, 1024, 1024, codelet="MatMulPartialScalar",
            check_fit=False,
        )
        linear = IPUModule(
            _shl(nn.Linear(1024, 1024, seed=0)), 1024, 50, spec=spec
        ).training_step_time()
        butterfly = IPUModule(
            _shl(nn.ButterflyLinear(1024, 1024, seed=0)), 1024, 50, spec=spec
        ).training_step_time()
        rows.append(
            GenerationRow(
                spec=spec,
                poplin_gflops_1024=gflops(2 * 1024**3, poplin.total_s),
                naive_gflops_1024=gflops(2 * 1024**3, naive.total_s),
                butterfly_step_s=butterfly,
                linear_step_s=linear,
                largest_matmul=largest_fitting_matmul(spec),
            )
        )
    return rows


def render() -> str:
    """Text rendering of the generational comparison."""
    rows = run()
    table = Table(
        title="IPU generations: GC2 (2018) vs GC200 (2020)",
        columns=[
            "device",
            "tiles",
            "memory (MiB)",
            "poplin GF @1024",
            "naive GF @1024",
            "bf/linear step",
            "largest square MM",
        ],
    )
    for row in rows:
        table.add_row(
            row.spec.name,
            row.spec.n_tiles,
            round(row.spec.total_memory_bytes / MiB),
            round(row.poplin_gflops_1024),
            round(row.naive_gflops_1024),
            f"{row.butterfly_vs_linear:.2f}x",
            row.largest_matmul,
        )
    return table.render()

