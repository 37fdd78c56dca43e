"""Variable liveness analysis for compiled IPU graphs.

The base compiler (:mod:`repro.ipu.compiler`) charges every variable as
always-live — a safe over-approximation.  Real Poplar reuses the storage of
dead temporaries, which matters for layer pipelines whose staging buffers
live for one superstep each.  This module computes per-program-step live
sets from def/use positions and reports the *peak* live footprint, giving a
tighter memory bound and a way to quantify how much reuse is on the table.
The memory planner (:mod:`repro.ipu.memplan`) turns these intervals into
actual slot assignments.

Definitions
-----------
A variable is *defined* at a step that writes it (a vertex output edge, a
copy destination, a host write) and *used* at a step that reads it (vertex
input, copy source, host read).  Its live interval spans first definition to
last use.  Variables never written inside the program (weights, inputs fed
via :meth:`Executor.run`) are conservatively live for the whole program.

A variable *used before its first in-program def* must hold externally
supplied data at program start, so its interval starts at step 0 — not at
the first def — and it is flagged ``upward_exposed``.  The planner never
places such a variable into a reused slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ipu.graph import Graph
from repro.utils import format_bytes

__all__ = ["LiveInterval", "LivenessReport", "compute_liveness"]


@dataclass(frozen=True)
class LiveInterval:
    """Live range of one variable in program-step indices (inclusive)."""

    var: str
    start: int
    end: int
    nbytes: int
    #: Read before its first in-program def: holds external data at step 0.
    upward_exposed: bool = False
    #: First def writes every element (safe to read nothing older).
    fully_defined: bool = True
    #: First def strictly precedes the first use (or the var is never
    #: read) — no step observes pre-def contents.
    def_before_use: bool = True
    home_tile: int = 0
    tile_span: int = 1

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def live_at(self, step: int) -> bool:
        return self.start <= step <= self.end


@dataclass
class LivenessReport:
    """Per-step live bytes and the peak footprint."""

    intervals: list[LiveInterval]
    per_step_bytes: np.ndarray
    always_live_bytes: int
    #: Intervals for never-written variables (live for the whole program).
    always_live: list[LiveInterval] = field(default_factory=list)
    #: Peak live bytes per tile over all steps (None if not computed).
    per_tile_peak_bytes: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.per_step_bytes)

    @property
    def peak_bytes(self) -> float:
        """Largest simultaneous live footprint over the program."""
        if len(self.per_step_bytes) == 0:
            return float(self.always_live_bytes)
        return float(self.per_step_bytes.max())

    @property
    def peak_step(self) -> int:
        """Program step where the peak occurs."""
        if len(self.per_step_bytes) == 0:
            return 0
        return int(self.per_step_bytes.argmax())

    @property
    def total_bytes(self) -> int:
        """Sum of all variable sizes (the no-reuse upper bound)."""
        return self.always_live_bytes + sum(
            iv.nbytes for iv in self.intervals
        )

    @property
    def peak_tile_bytes(self) -> float:
        """Largest per-tile peak (0.0 when per-tile data was not computed)."""
        if self.per_tile_peak_bytes is None or not len(
            self.per_tile_peak_bytes
        ):
            return 0.0
        return float(self.per_tile_peak_bytes.max())

    @property
    def reuse_saving(self) -> float:
        """Fraction of the no-reuse footprint that liveness reclaims."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return 1.0 - self.peak_bytes / total

    def __str__(self) -> str:
        return (
            f"LivenessReport(peak={format_bytes(self.peak_bytes)} at step "
            f"{self.peak_step}/{self.n_steps}, no-reuse total="
            f"{format_bytes(self.total_bytes)}, saving="
            f"{self.reuse_saving:.0%})"
        )


def compute_liveness(graph: Graph) -> LivenessReport:
    """Compute variable live ranges over *graph*'s program order."""
    n_steps = len(graph.program)
    names = list(graph.variables)
    var_ids = {name: i for i, name in enumerate(names)}
    none = n_steps + 1
    # Per variable: first def, first use and last def-or-use step, read
    # off the edge table; copies and host I/O are folded in per step.
    first_def = np.full(len(names), none, dtype=np.int64)
    first_use = np.full(len(names), none, dtype=np.int64)
    last_use = np.full(len(names), -1, dtype=np.int64)
    step_cs = np.full(n_steps, -1, dtype=np.int64)
    cs_first = np.full(len(graph.compute_sets), none, dtype=np.int64)
    cs_last = np.full(len(graph.compute_sets), -1, dtype=np.int64)
    for step_idx, step in enumerate(graph.program):
        if step.kind == "compute":
            step_cs[step_idx] = step.ref
            cs_first[step.ref] = min(cs_first[step.ref], step_idx)
            cs_last[step.ref] = step_idx
            continue
        if step.kind == "copy":
            used, defined = step.ref
        elif step.kind == "host_write":
            used, defined = None, step.ref
        else:
            used, defined = step.ref, None
        if used is not None:
            u = var_ids[used]
            first_use[u] = min(first_use[u], step_idx)
            last_use[u] = max(last_use[u], step_idx)
        if defined is not None:
            d = var_ids[defined]
            first_def[d] = min(first_def[d], step_idx)
            last_use[d] = max(last_use[d], step_idx)

    edges = graph.edge_table()
    edge_cs = graph.vertex_table().cs[edges.vertex]
    scheduled = cs_last[edge_cs] >= 0
    var, cs = edges.var[scheduled], edge_cs[scheduled]
    out = edges.output[scheduled]
    np.minimum.at(first_def, var[out], cs_first[cs[out]])
    np.minimum.at(first_use, var[~out], cs_first[cs[~out]])
    np.maximum.at(last_use, var, cs_last[cs])

    # Elements written at each variable's first defining step: the sum
    # of its output edges in that step's compute set, or every element
    # for a copy / host write.
    def_var = var[out]
    at_first = step_cs[first_def[def_var]] == cs[out]
    coverage = np.bincount(
        def_var[at_first],
        weights=edges.n_elements[scheduled][out][at_first],
        minlength=len(names),
    )
    defined = first_def < none
    by_transfer = np.zeros(len(names), dtype=bool)
    by_transfer[defined] = step_cs[first_def[defined]] < 0

    intervals: list[LiveInterval] = []
    always_live_ivs: list[LiveInterval] = []
    always_live = 0
    last_step = max(n_steps - 1, 0)
    for i, (name, var) in enumerate(graph.variables.items()):
        if not defined[i]:
            # Never written inside the program: an external input or a
            # parameter — conservatively live throughout.
            always_live += var.total_bytes
            always_live_ivs.append(
                LiveInterval(
                    var=name,
                    start=0,
                    end=last_step,
                    nbytes=var.total_bytes,
                    upward_exposed=True,
                    fully_defined=False,
                    def_before_use=False,
                    home_tile=var.home_tile,
                    tile_span=var.tile_span,
                )
            )
            continue
        def_step = int(first_def[i])
        use_step = int(first_use[i])
        upward_exposed = use_step < def_step
        # Used before its first def: it must already hold external data,
        # so the footprint exists from program start.
        start = 0 if upward_exposed else def_step
        written = var.n_elements if by_transfer[i] else coverage[i]
        intervals.append(
            LiveInterval(
                var=name,
                start=start,
                end=int(last_use[i]),
                nbytes=var.total_bytes,
                upward_exposed=upward_exposed,
                fully_defined=written >= var.n_elements,
                def_before_use=use_step > def_step,
                home_tile=var.home_tile,
                tile_span=var.tile_span,
            )
        )

    per_step = np.full(n_steps, float(always_live))
    for iv in intervals:
        per_step[iv.start : iv.end + 1] += iv.nbytes

    # Per-tile peaks via a 2D difference array over (step, tile): each
    # interval spreads nbytes/tile_span uniformly over its tile range.
    n_tiles = graph.n_tiles
    rows = max(n_steps, 1)
    diff = np.zeros((rows + 1, n_tiles + 1))
    for iv in intervals + always_live_ivs:
        share = iv.nbytes / iv.tile_span
        t0, t1 = iv.home_tile, iv.home_tile + iv.tile_span
        diff[iv.start, t0] += share
        diff[iv.start, t1] -= share
        diff[iv.end + 1, t0] -= share
        diff[iv.end + 1, t1] += share
    grid = diff.cumsum(axis=0).cumsum(axis=1)[:rows, :n_tiles]
    per_tile_peak = grid.max(axis=0) if rows else np.zeros(n_tiles)

    return LivenessReport(
        intervals=intervals,
        per_step_bytes=per_step,
        always_live_bytes=always_live,
        always_live=always_live_ivs,
        per_tile_peak_bytes=per_tile_peak,
    )
