"""Fig 5 — how IPU graph structure and memory grow with problem size.

Compiles poplin matmul graphs across square sizes and reports the PopVision
quantities the paper plots: number of edges, variables, vertices, compute
sets, and the remaining free memory.  Observation 3 — memory grows faster
than the raw tensor footprint, driven by graph structure — falls out of the
compiler's accounting.

Each size compiles through :func:`~repro.ipu.compiler.cached_compile`
keyed on the matmul's provenance, so a warm compilation cache skips graph
construction entirely; ``run(jobs=N)`` fans the sizes out over the
parallel runner (:mod:`repro.bench.parallel`).

The **planner headroom sweep** (``planner_run`` / ``render_planner``)
extends the figure with the liveness-driven memory planner
(:mod:`repro.ipu.memplan`): deep MLP forward graphs are compiled with
and without ``plan_memory=True``, showing the per-depth "planned peak"
series, the reclaimed fraction, and — the point of the exercise — depths
that fail ``check_fit`` without the planner but compile with it.
:func:`verify_planner_numerics` executes a small configuration both ways
and confirms the outputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.bench.parallel import run_grid
from repro.guard import GuardPolicy
from repro.bench.reporting import Table
from repro.ipu.compiler import GraphProfile, cached_compile, compile_graph
from repro.ipu.executor import Executor
from repro.ipu.machine import GC200
from repro.ipu.poplin import build_matmul_graph, matmul_provenance
from repro.ipu.poptorch import IPUModule
from repro.utils import KiB, MiB

__all__ = [
    "Fig5Row",
    "PlannerRow",
    "default_sizes",
    "planner_depths",
    "run",
    "planner_run",
    "verify_planner_numerics",
    "render",
    "render_planner",
]


def default_sizes() -> list[int]:
    """Square matmul sizes 2**5 .. 2**12."""
    return [1 << e for e in range(5, 13)]


@dataclass(frozen=True)
class Fig5Row:
    """One problem size's graph profile."""

    n: int
    profile: GraphProfile

    @property
    def overhead_ratio(self) -> float:
        """Total compiled memory / raw variable bytes."""
        if self.profile.variable_bytes == 0:
            return 0.0
        return self.profile.total_bytes / self.profile.variable_bytes


def _profile_one(n: int, seed_seq) -> Fig5Row:
    """Grid worker: compile one size's matmul (cache-aware) and profile."""
    compiled = cached_compile(
        matmul_provenance(n, n, n),
        lambda: build_matmul_graph(GC200, n, n, n)[0],
        GC200,
        check_fit=False,
    )
    return Fig5Row(n=n, profile=compiled.profile())


# -- planner headroom sweep ----------------------------------------------------


def planner_depths() -> list[int]:
    """MLP depths for the planner headroom sweep.

    Sized (with :data:`PLANNER_DIM` and :data:`PLANNER_BATCH`) so the
    deepest entries exceed GC200's usable tile memory without buffer
    reuse but fit with the planner.
    """
    return [2, 4, 6, 8, 10]


#: Layer width and batch rows of the planner headroom sweep's MLPs.
PLANNER_DIM = 2048
PLANNER_BATCH = 2048


@dataclass(frozen=True)
class PlannerRow:
    """One MLP depth compiled with and without the memory planner."""

    depth: int
    dim: int
    batch: int
    unplanned: GraphProfile
    planned: GraphProfile

    @property
    def fits_no_reuse(self) -> bool:
        return self.unplanned.fits

    @property
    def fits_planned(self) -> bool:
        return self.planned.fits

    @property
    def reclaimed_fraction(self) -> float:
        """Fraction of the no-reuse peak the planner reclaimed."""
        return self.planned.plan_saving_fraction


def _mlp(depth: int, dim: int):
    return nn.Sequential(
        *[
            m
            for i in range(depth)
            for m in (nn.Linear(dim, dim, seed=i), nn.ReLU())
        ]
    )


def _planner_one(config: tuple[int, int, int], seed_seq) -> PlannerRow:
    """Grid worker: profile one MLP depth planned and unplanned."""
    depth, dim, batch = config
    module = IPUModule(_mlp(depth, dim), dim, batch, spec=GC200)
    unplanned = compile_graph(module.graph, GC200, check_fit=False)
    planned = compile_graph(
        module.graph, GC200, check_fit=False, plan_memory=True
    )
    return PlannerRow(
        depth=depth,
        dim=dim,
        batch=batch,
        unplanned=unplanned.profile(),
        planned=planned.profile(),
    )


def planner_run() -> list[PlannerRow]:
    """The planner headroom series: deep MLPs with/without buffer reuse."""
    configs = [
        (depth, PLANNER_DIM, PLANNER_BATCH) for depth in planner_depths()
    ]
    return run_grid(_planner_one, configs, name="fig5.planner")


def verify_planner_numerics() -> bool:
    """Execute a 4-layer, 64-wide MLP at batch 32 planned and unplanned;
    True iff bit-identical.

    The headroom sweep itself only *profiles* (its sizes are too big to
    execute in numpy); this companion check runs real numerics through the
    slot-aliased executor at a small size, including the executor's own
    shadow-replay verification (``check_aliasing=True``).
    """
    module = IPUModule(_mlp(4, 64), 64, 32, spec=GC200)
    graph = module.graph
    rng = np.random.default_rng(0)
    inputs = {
        name: rng.standard_normal(var.shape)
        for name, var in graph.variables.items()
        if name.startswith(("input", "linear_w", "linear_bias_"))
    }
    plain = compile_graph(graph, GC200, check_fit=False)
    planned = compile_graph(
        graph, GC200, check_fit=False, plan_memory=True
    )
    ref, _ = Executor(plain).run(inputs)
    out, _ = Executor(planned).run(inputs, check_aliasing=True)
    surviving = planned.memory_plan().surviving_variables()
    return all(
        np.array_equal(ref[name], out[name]) for name in surviving
    )


def run(
    sizes: list[int] | None = None,
    jobs: int = 1,
    guard: GuardPolicy | None = None,
) -> list[Fig5Row]:
    """Compile a poplin matmul per size and collect profiles."""
    rows = run_grid(
        _profile_one, sizes or default_sizes(), jobs=jobs, guard=guard,
        name="fig5",
    )
    return [row for row in rows if row is not None]


def render(jobs: int = 1, guard: GuardPolicy | None = None) -> str:
    """Text rendering of the Fig 5 series."""
    table = Table(
        title=(
            "Fig 5: IPU matmul graph structure and memory vs problem size"
        ),
        columns=[
            "N",
            "variables",
            "vertices",
            "edges",
            "compute sets",
            "data (MiB)",
            "total (MiB)",
            "free (MiB)",
            "overhead x",
        ],
    )
    for row in run(jobs=jobs, guard=guard):
        p = row.profile
        table.add_row(
            row.n,
            p.n_variables,
            p.n_vertices,
            p.n_edges,
            p.n_compute_sets,
            p.variable_bytes / MiB,
            p.total_bytes / MiB,
            p.free_bytes / MiB,
            row.overhead_ratio,
        )
    return table.render()


def render_planner(rows: list[PlannerRow]) -> str:
    """Text rendering of the planner headroom series, with the verdict of
    :func:`verify_planner_numerics`."""
    table = Table(
        title=(
            "Fig 5 (planner): deep-MLP peak tile memory, "
            "no-reuse vs liveness-planned"
        ),
        columns=[
            "depth",
            "no-reuse peak (KiB)",
            "planned peak (KiB)",
            "reclaimed",
            "fits no-reuse",
            "fits planned",
        ],
    )
    for row in rows:
        table.add_row(
            row.depth,
            row.unplanned.peak_tile_bytes / KiB,
            row.planned.peak_tile_bytes / KiB,
            f"{row.reclaimed_fraction:.0%}",
            "yes" if row.fits_no_reuse else "NO",
            "yes" if row.fits_planned else "NO",
        )
    ok = verify_planner_numerics()
    return table.render() + (
        "\nnumerics: planned execution "
        + ("bit-identical to unplanned" if ok else "DIVERGED")
    )
