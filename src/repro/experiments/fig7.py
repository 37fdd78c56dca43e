"""Fig 7 — compute sets and memory of butterfly vs pixelfly IPU graphs.

The paper uses the PopVision Graph Analyzer to explain the Fig 6
performance gap: the number of compute sets correlates with variables,
edges and vertices, and those drive memory.  This sweep compiles the
lowered forward graphs of both factorizations (plus linear for reference)
and reports the same quantities, plus the liveness-planned peak per
parameterisation (:mod:`repro.ipu.memplan`) — how much of each lowering's
footprint is reclaimable staging buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import nn
from repro.bench.parallel import run_grid
from repro.guard import GuardPolicy
from repro.bench.reporting import Table
from repro.experiments.fig6 import FIG6_PIXELFLY
from repro.ipu.compiler import GraphProfile, compile_graph
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule
from repro.utils import KiB, MiB

__all__ = ["Fig7Row", "default_sizes", "run", "render"]


def default_sizes() -> list[int]:
    """N = 2**7 .. 2**12."""
    return [1 << e for e in range(7, 13)]


@dataclass(frozen=True)
class Fig7Row:
    """Graph profile of one layer type at one size.

    ``profile`` is the classic (no-reuse) compile; ``planned`` the same
    graph under the liveness-driven memory planner.
    """

    layer: str
    n: int
    profile: GraphProfile
    planned: GraphProfile | None = None

    @property
    def reclaimed_fraction(self) -> float:
        """Fraction of the no-reuse peak the planner reclaimed."""
        if self.planned is None:
            return 0.0
        return self.planned.plan_saving_fraction


def _profile_size(n: int, seed_seq) -> list[Fig7Row]:
    """Grid worker: profile the three layer graphs at one size."""
    layers = {
        "linear": nn.Linear(n, n, bias=False, seed=0),
        "butterfly": nn.ButterflyLinear(n, n, bias=False, seed=0),
        "pixelfly": nn.PixelflyLinear(
            n, bias=False, seed=0, **FIG6_PIXELFLY
        ),
    }
    rows = []
    for name, layer in layers.items():
        module = IPUModule(layer, in_features=n, batch=n, spec=GC200)
        rows.append(
            Fig7Row(
                layer=name,
                n=n,
                profile=module.profile(),
                planned=compile_graph(
                    module.graph, GC200, check_fit=False, plan_memory=True
                ).profile(),
            )
        )
    return rows


def run(
    sizes: list[int] | None = None,
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> list[Fig7Row]:
    """Compile the three layer graphs per size and profile them."""
    per_size = run_grid(
        _profile_size, sizes or default_sizes(), jobs=jobs, guard=guard,
        name="fig7",
    )
    return [row for rows in per_size if rows is not None for row in rows]


def render(
    sizes: list[int] | None = None,
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> str:
    """Text rendering of the Fig 7 sweep."""
    table = Table(
        title=(
            "Fig 7: IPU graph structure for linear/butterfly/pixelfly "
            "(square problems)"
        ),
        columns=[
            "layer",
            "N",
            "compute sets",
            "vertices",
            "edges",
            "variables",
            "total mem (MiB)",
            "free (MiB)",
            "peak tile (KiB)",
            "planned peak (KiB)",
            "reclaimed",
        ],
    )
    for row in run(sizes, jobs=jobs, guard=guard):
        p = row.profile
        planned = row.planned
        table.add_row(
            row.layer,
            row.n,
            p.n_compute_sets,
            p.n_vertices,
            p.n_edges,
            p.n_variables,
            p.total_bytes / MiB,
            p.free_bytes / MiB,
            p.peak_tile_bytes / KiB,
            planned.peak_tile_bytes / KiB if planned else float("nan"),
            f"{row.reclaimed_fraction:.0%}",
        )
    return table.render()

