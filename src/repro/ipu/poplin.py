"""poplin-style dense matmul planning for the IPU simulator.

``choose_grid`` searches tile-partition grids ``(pm, pn, pk)`` balancing
compute, exchange and per-tile memory — the role of poplibs' matmul planner.
``build_matmul_graph`` then materialises the plan as a real
:class:`~repro.ipu.graph.Graph`: one AMP partial-product vertex per grid
cell, plus a reduction compute set when ``pk > 1``.

Three variants mirror the paper's Table 2 columns:

* ``poplin`` — planned AMP matmul (the fast path).
* ``naive`` — scalar codelets, no AMP (the "IPU naive" column).
* ``blocked`` — a hand-blocked implementation that stages operand blocks
  through temporaries with explicit copy vertices and keeps per-phase
  partials live; its copy traffic and temporary memory are why the paper's
  Note 3 reports it suffering ("too much temporal data … many copies").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ipu.compiler import compile_graph
from repro.ipu.executor import ExecutionReport, Executor
from repro.ipu.graph import Edge, Graph
from repro.ipu.machine import IPUSpec
from repro.ipu.vertices import VERTEX_OVERHEAD_CYCLES
from repro.linalg.dense import ELEMENT_BYTES

__all__ = [
    "MatMulPlan",
    "choose_grid",
    "emit_matmul",
    "build_matmul_graph",
    "build_blocked_matmul_graph",
    "matmul_provenance",
    "matmul_report",
    "poptorch_matmul_report",
]


def _pow2_candidates(limit: int) -> list[int]:
    """Powers of two from 1 up to *limit* (inclusive of the largest <=)."""
    out = [1]
    while out[-1] * 2 <= limit:
        out.append(out[-1] * 2)
    return out


@dataclass(frozen=True)
class MatMulPlan:
    """A chosen partition grid and its per-tile chunk shapes.

    The grid may have more cells than tiles: like real poplin, the schedule
    then *serialises* — each tile runs several partial-product vertices over
    consecutive supersteps, accumulating into its output chunk in place
    (the AMP is an *accumulating* matrix product unit), so per-tile memory
    stays bounded by one chunk set regardless of problem size.
    """

    m: int
    n: int
    k: int
    pm: int
    pn: int
    pk: int
    element_bytes: int = 4
    n_tiles: int = 1472

    @property
    def chunk(self) -> tuple[int, int, int]:
        """Per-vertex chunk (mt, nt, kt), ceil-divided."""
        return (
            math.ceil(self.m / self.pm),
            math.ceil(self.n / self.pn),
            math.ceil(self.k / self.pk),
        )

    @property
    def cells(self) -> int:
        """Total partial-product vertices."""
        return self.pm * self.pn * self.pk

    @property
    def tiles_used(self) -> int:
        """Distinct tiles hosting partial-product vertices."""
        return min(self.pm * self.pn, self.n_tiles)

    @property
    def supersteps(self) -> int:
        """Sequential compute sets needed to serialise the cells.

        All ``pk`` k-chunks of an output cell stay on one tile (in-place
        accumulation), so the serial depth is the per-tile vertex count.
        """
        ij = self.pm * self.pn
        return math.ceil(ij / self.tiles_used) * self.pk

    def tile_memory_bytes(self) -> int:
        """Operand + output bytes a single tile must hold at once."""
        mt, nt, kt = self.chunk
        return self.element_bytes * (mt * kt + kt * nt + mt * nt)


def _candidates(
    m: int, n: int, k: int, max_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ``(pm, pn, pk)`` power-of-two grid, in scan order.

    Scan order is pm-major, then pn, then pk, each ascending; a pm stops
    at the first pn with ``pm * pn > max_cells`` and each (pm, pn) tries
    pk up to ``min(k, max_cells // (pm * pn))``.
    """
    pm, pn = np.meshgrid(
        _pow2_candidates(m), _pow2_candidates(n), indexing="ij"
    )
    pm, pn = pm.ravel(), pn.ravel()
    keep = pm * pn <= max_cells
    pm, pn = pm[keep], pn[keep]
    pk_limit = np.minimum(k, max_cells // (pm * pn))
    n_pk = np.array([int(x).bit_length() for x in pk_limit], dtype=np.int64)
    group_start = np.repeat(np.cumsum(n_pk) - n_pk, n_pk)
    pk = 1 << (np.arange(n_pk.sum()) - group_start)
    return np.repeat(pm, n_pk), np.repeat(pn, n_pk), pk


def _ceil_div(a, b):
    return -(-a // b)


def choose_grid(spec: IPUSpec, m: int, n: int, k: int) -> MatMulPlan:
    """Pick the fastest memory-feasible partition grid for a GEMM.

    Every candidate grid is costed at once: per-tile memory
    (:meth:`MatMulPlan.tile_memory_bytes`) and a cheap analytic time —
    serial supersteps of one AMP partial, its operand exchange and a
    sync each.
    """
    if min(m, n, k) <= 0:
        raise ValueError(f"matmul dims must be positive, got {(m, n, k)}")
    budget = spec.usable_tile_memory * 0.8  # leave headroom for code/buffers
    pm, pn, pk = _candidates(m, n, k, 64 * spec.n_tiles)
    mt, nt, kt = _ceil_div(m, pm), _ceil_div(n, pn), _ceil_div(k, pk)
    memory = ELEMENT_BYTES * (mt * kt + kt * nt + mt * nt)
    feasible = np.flatnonzero(memory <= budget)
    if not len(feasible):
        # Nothing fits: return the least-bad plan; compile_graph will raise.
        best = int(np.argmin(memory))
    else:
        pm, pn, pk = pm[feasible], pn[feasible], pk[feasible]
        mt, nt, kt = mt[feasible], nt[feasible], kt[feasible]
        amp_eff = np.minimum(1.0, kt / 16.0)
        per_vertex_cycles = VERTEX_OVERHEAD_CYCLES + (
            mt * nt * kt / (spec.amp_macs_per_cycle * np.maximum(amp_eff, 1e-3))
        )
        # ExchangeModel.transfer_cycles of each vertex's operand bytes.
        exchange_bytes = ELEMENT_BYTES * (mt * kt + kt * nt)
        per_step_exchange = (
            spec.exchange_setup_cycles
            + np.ceil(exchange_bytes / spec.exchange_bytes_per_cycle)
        ) / spec.clock_hz
        ij = pm * pn
        steps = np.ceil(ij / np.minimum(ij, spec.n_tiles)).astype(np.int64) * pk
        sync_s = steps * spec.sync_cycles / spec.clock_hz
        times = (
            steps * per_vertex_cycles / spec.clock_hz
            + steps * per_step_exchange
            + sync_s
        )
        # Among near-optimal plans (within 10 % of the fastest), prefer the
        # smallest grid: fewer vertices/edges means less code and control
        # memory — the same economy real poplin applies, and the reason the
        # Fig 5 graph statistics grow with problem size.  Ties go to the
        # first plan in scan order.
        near = np.flatnonzero(times <= 1.10 * times.min())
        best = int(near[np.argmin((pm * pn * pk)[near])])
    return MatMulPlan(
        m, n, k, int(pm[best]), int(pn[best]), int(pk[best]),
        ELEMENT_BYTES, spec.n_tiles,
    )


def _bounds(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and stops of *parts* near-even contiguous ranges of [0, total)."""
    sizes = total // parts + (np.arange(parts) < total % parts)
    stops = np.cumsum(sizes)
    return stops - sizes, stops


def emit_matmul(
    graph: Graph,
    spec: IPUSpec,
    a: str,
    b: str,
    c: str,
    m: int,
    n: int,
    k: int,
    codelet: str = "MatMulPartialAMP",
    plan: MatMulPlan | None = None,
    name: str | None = None,
) -> MatMulPlan:
    """Emit a planned GEMM ``C = A @ B`` into an existing graph.

    Variables *a* (m,k), *b* (k,n) and *c* (m,n) must already exist.
    Used both by :func:`build_matmul_graph` and by the PopTorch-style
    layer lowering in :mod:`repro.ipu.poptorch`.
    """
    if plan is None:
        plan = choose_grid(spec, m, n, k)
    name = name or f"{c}_mm"

    r0, r1 = _bounds(m, plan.pm)
    c0, c1 = _bounds(n, plan.pn)
    k0, k1 = _bounds(k, plan.pk)

    # Serialised schedule: output cell ij sits on tile ij % tiles_used and
    # all its k-chunks accumulate there in place; a tile's q-th cell runs
    # its k-chunks in supersteps q*pk .. q*pk + pk - 1, so only one chunk
    # set is live per superstep.  Superstep s holds k-chunk s % pk of the
    # cells [q*T, (q+1)*T) with q = s // pk.
    cells = plan.pm * plan.pn
    per_tile = plan.tiles_used
    for step in range(plan.supersteps):
        cs = graph.add_compute_set(f"{name}/partials{step}")
        q, kk = divmod(step, plan.pk)
        ij = np.arange(q * per_tile, min((q + 1) * per_tile, cells))
        i, j = ij // plan.pn, ij % plan.pn
        rows = slice(r0[i], r1[i])
        cols = slice(c0[j], c1[j])
        depth = slice(int(k0[kk]), int(k1[kk]))
        kb = int(k1[kk] - k0[kk])
        graph.add_vertices(
            cs,
            codelet,
            ij - q * per_tile,
            inputs=[
                Edge(a, (r1 - r0)[i] * kb, key=(rows, depth)),
                Edge(b, kb * (c1 - c0)[j], key=(depth, cols)),
            ],
            outputs=[
                Edge(c, (r1 - r0)[i] * (c1 - c0)[j], key=(rows, cols),
                     local=True),
            ],
            params={
                "m": (r1 - r0)[i],
                "n": (c1 - c0)[j],
                "k": kb,
                "accumulate": kk > 0,
            },
        )
    return plan


def build_matmul_graph(
    spec: IPUSpec,
    m: int,
    n: int,
    k: int,
    codelet: str = "MatMulPartialAMP",
    plan: MatMulPlan | None = None,
    host_io: bool = False,
) -> tuple[Graph, MatMulPlan]:
    """Materialise a planned GEMM as a standalone executable IPU graph.

    Variables: ``A (m,k)``, ``B (k,n)``, ``C (m,n)`` spread over all tiles,
    plus partials when the plan splits ``k``.  With ``host_io=True`` the
    program also streams A/B in and C out (the PopTorch measurement mode of
    the paper's Note 4).
    """
    graph = Graph(spec.n_tiles, name="matmul")
    graph.add_variable("A", (m, k))
    graph.add_variable("B", (k, n))
    graph.add_variable("C", (m, n))
    if host_io:
        graph.add_host_write("A")
        graph.add_host_write("B")
    explicit_plan = plan is not None
    plan = emit_matmul(
        graph, spec, "A", "B", "C", m, n, k, codelet=codelet, plan=plan,
        name="matmul",
    )
    if host_io:
        graph.add_host_read("C")
    if not explicit_plan:
        # With the plan chosen by choose_grid the graph is a pure
        # function of (dims, codelet, host_io) given the spec, so the
        # compilation cache can key on this tuple instead of walking the
        # whole structure.  An explicit plan falls back to fingerprinting.
        graph.provenance = matmul_provenance(
            m, n, k, codelet=codelet, host_io=host_io
        )
    return graph, plan


def matmul_provenance(
    m: int,
    n: int,
    k: int,
    codelet: str = "MatMulPartialAMP",
    host_io: bool = False,
) -> tuple:
    """The cache-key identity of a default-planned matmul graph.

    Matches what :func:`build_matmul_graph` attaches, so
    :func:`~repro.ipu.compiler.cached_compile` callers can look up a
    graph without building it.
    """
    return ("poplin.matmul", m, n, k, codelet, bool(host_io))


def build_blocked_matmul_graph(
    spec: IPUSpec,
    m: int,
    n: int,
    k: int,
    block: int = 128,
) -> Graph:
    """The paper's hand-blocked variant: staged copies + live partials.

    Each k-phase first *copies* its operand panels into temporaries
    (distributed Copy vertices — a full extra superstep of exchange per
    phase), then computes partials into a per-phase slab that stays live
    until the final reduction.  Both the copies and the ``phases x m x n``
    partials are deliberate: they model why the paper measured only
    93 GFLOPS for this variant (Note 3).
    """
    if block <= 0:
        raise ValueError(f"block must be positive, got {block}")
    phases = math.ceil(k / block)
    pm_b = math.ceil(m / block)
    pn_b = math.ceil(n / block)
    graph = Graph(spec.n_tiles, name="blocked_matmul")
    graph.add_variable("A", (m, k))
    graph.add_variable("B", (k, n))
    graph.add_variable("C", (m, n))
    graph.add_variable("tmpA", (m, block))
    graph.add_variable("tmpB", (block, n))
    # The phase-partial slab stays live until the final reduce — the
    # "too much temporal data" of the paper's Note 3.
    graph.add_variable("P", (phases, m, n))

    r0, r1 = _bounds(m, pm_b)
    c0, c1 = _bounds(n, pn_b)
    rows_b, cols_b = r1 - r0, c1 - c0
    # Block (bi, bj) of the output grid, row-major.
    bi = np.repeat(np.arange(pm_b), pn_b)
    bj = np.tile(np.arange(pn_b), pm_b)
    block_rows, block_cols = slice(r0[bi], r1[bi]), slice(c0[bj], c1[bj])
    block_tiles = (bi * pn_b + bj) % spec.n_tiles
    cells = rows_b[bi] * cols_b[bj]

    for phase in range(phases):
        k0 = phase * block
        k1 = min(k0 + block, k)
        kb = k1 - k0
        # Stage the operand panels through temporaries: a full extra
        # superstep of exchange per phase ("many copies taking place").
        cs_copy = graph.add_compute_set(f"blocked_matmul/copy_in_{phase}")
        a_rows = slice(r0, r1)
        graph.add_vertices(
            cs_copy,
            "Copy",
            np.arange(pm_b) * pn_b % spec.n_tiles,
            inputs=[Edge("A", rows_b * kb, key=(a_rows, slice(k0, k1)))],
            outputs=[Edge("tmpA", rows_b * kb, key=(a_rows, slice(0, kb)))],
        )
        b_cols = slice(c0, c1)
        graph.add_vertices(
            cs_copy,
            "Copy",
            np.arange(pn_b) % spec.n_tiles,
            inputs=[Edge("B", kb * cols_b, key=(slice(k0, k1), b_cols))],
            outputs=[Edge("tmpB", kb * cols_b, key=(slice(0, kb), b_cols))],
        )
        cs_mm = graph.add_compute_set(f"blocked_matmul/mm_{phase}")
        graph.add_vertices(
            cs_mm,
            # A hand-written codelet drives neither the AMP pipeline nor
            # the SIMD path (the paper's blocked variant performs below
            # even the naive one: Table 2's 93 vs 525 GFLOPS).
            "MatMulPartialScalar",
            block_tiles,
            inputs=[
                Edge("tmpA", rows_b[bi] * kb, key=(block_rows, slice(0, kb))),
                Edge("tmpB", kb * cols_b[bj], key=(slice(0, kb), block_cols)),
            ],
            outputs=[
                Edge("P", cells, key=(phase, block_rows, block_cols),
                     local=True),
            ],
            params={"m": rows_b[bi], "n": cols_b[bj], "k": kb},
        )

    cs_red = graph.add_compute_set("blocked_matmul/reduce")
    graph.add_vertices(
        cs_red,
        "ReduceAdd",
        block_tiles,
        inputs=[
            Edge("P", cells, key=(phase, block_rows, block_cols), local=True)
            for phase in range(phases)
        ],
        outputs=[Edge("C", cells, key=(block_rows, block_cols), local=True)],
    )
    graph.provenance = ("poplin.blocked_matmul", m, n, k, block)
    return graph


def matmul_report(
    spec: IPUSpec,
    m: int,
    n: int,
    k: int,
    codelet: str = "MatMulPartialAMP",
    host_io: bool = False,
    check_fit: bool = True,
) -> ExecutionReport:
    """Plan, compile and time a GEMM; convenience wrapper for benches."""
    graph, _ = build_matmul_graph(
        spec, m, n, k, codelet=codelet, host_io=host_io
    )
    compiled = compile_graph(graph, spec, check_fit=check_fit)
    return Executor(compiled).estimate()


def poptorch_matmul_report(
    spec: IPUSpec, m: int, n: int, k: int
) -> ExecutionReport:
    """The PopTorch measurement mode: matmul time *including* host copies."""
    return matmul_report(spec, m, n, k, host_io=True)
