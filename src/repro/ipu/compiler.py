"""Graph compilation: tile memory accounting and fit checking.

This is where the paper's Observation 3 lives: *"overall memory usage for
the IPU does not only depend on the problem size … there are additional
effects"*.  Compiling a graph charges each tile for

* its share of every variable's data,
* per-vertex descriptor state,
* per-edge exchange/copy code,
* per-compute-set control code (on every participating tile),
* per-codelet-type code, and
* exchange receive buffers sized by the heaviest superstep.

All but the first grow with graph *structure* (vertices, edges, compute
sets) rather than tensor footprint — reproducing Fig 5's super-linear
memory curves and the OOM that stops ``torch.nn.Linear`` before butterfly
in Fig 6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cache import (
    NULL_CACHE,
    CacheRecord,
    CompilationCache,
    canonical_key,
    dataclass_key,
    get_cache,
)
from repro.ipu.graph import Graph
from repro.ipu.machine import IPUSpec
from repro.ipu.memplan import MemoryPlan, plan_memory as _plan_memory
from repro.obs import get_logger, get_registry, get_tracer
from repro.obs.metrics import DEFAULT_BYTES_EDGES, Histogram
from repro.utils import format_bytes

__all__ = [
    "IPUOutOfMemoryError",
    "MemoryBreakdown",
    "MemoryReport",
    "GraphProfile",
    "GraphSummary",
    "CompiledGraph",
    "compile_graph",
    "cached_compile",
    "compile_cache_key",
    "graph_fingerprint",
    "memory_section",
]


class IPUOutOfMemoryError(RuntimeError):
    """Raised when a compiled graph exceeds some tile's memory."""


@dataclass(frozen=True)
class MemoryBreakdown:
    """Aggregate bytes by category (summed over all tiles)."""

    variables: float
    vertex_state: float
    edge_code: float
    control_code: float
    codelet_code: float
    exchange_buffers: float

    @property
    def total(self) -> float:
        return (
            self.variables
            + self.vertex_state
            + self.edge_code
            + self.control_code
            + self.codelet_code
            + self.exchange_buffers
        )

    @property
    def overhead(self) -> float:
        """Everything that is not raw tensor data."""
        return self.total - self.variables

    @property
    def overhead_fraction(self) -> float:
        """Overhead / total (0 when the graph is empty)."""
        return self.overhead / self.total if self.total > 0 else 0.0


@dataclass
class MemoryReport:
    """Per-tile memory map plus totals for one compiled graph.

    For a planned compile (``compile_graph(..., plan_memory=True)``)
    ``per_tile_bytes`` is the *planned* footprint — variables charged at
    their shared-slot capacities — and ``no_reuse_per_tile_bytes`` keeps
    the footprint the same graph would have without buffer reuse, so the
    reclaimed headroom is always inspectable.  ``fits``/``check_fit``
    therefore gate on the planned peak.
    """

    spec: IPUSpec
    per_tile_bytes: np.ndarray
    breakdown: MemoryBreakdown
    #: Per-tile footprint without buffer reuse (None for unplanned
    #: compiles, where ``per_tile_bytes`` *is* the no-reuse footprint).
    no_reuse_per_tile_bytes: np.ndarray | None = None

    @property
    def planned(self) -> bool:
        """True when this report came from a planned compile."""
        return self.no_reuse_per_tile_bytes is not None

    @property
    def peak_planned_bytes(self) -> float:
        """Peak tile bytes under the memory plan (== peak when planned)."""
        return self.peak_tile_bytes

    @property
    def no_reuse_peak_tile_bytes(self) -> float:
        """Peak tile bytes without buffer reuse."""
        if self.no_reuse_per_tile_bytes is None:
            return self.peak_tile_bytes
        if not len(self.no_reuse_per_tile_bytes):
            return 0.0
        return float(self.no_reuse_per_tile_bytes.max())

    @property
    def plan_saving_bytes(self) -> float:
        """Peak-tile bytes reclaimed by the planner (0 when unplanned)."""
        return self.no_reuse_peak_tile_bytes - self.peak_tile_bytes

    @property
    def plan_saving_fraction(self) -> float:
        """Reclaimed fraction of the no-reuse peak (0 when unplanned)."""
        no_reuse = self.no_reuse_peak_tile_bytes
        if no_reuse <= 0:
            return 0.0
        return self.plan_saving_bytes / no_reuse

    @property
    def total_bytes(self) -> float:
        return float(self.per_tile_bytes.sum())

    @property
    def peak_tile_bytes(self) -> float:
        return float(self.per_tile_bytes.max()) if len(
            self.per_tile_bytes
        ) else 0.0

    @property
    def free_bytes(self) -> float:
        """Remaining usable memory across the device (>= 0 per tile)."""
        usable = self.spec.usable_tile_memory
        return float(np.maximum(usable - self.per_tile_bytes, 0).sum())

    @property
    def fits(self) -> bool:
        """True iff every tile fits in its usable memory."""
        return bool(
            (self.per_tile_bytes <= self.spec.usable_tile_memory).all()
        )

    def over_capacity_tiles(self) -> np.ndarray:
        """Tile indices exceeding usable memory."""
        return np.flatnonzero(
            self.per_tile_bytes > self.spec.usable_tile_memory
        )

    def __str__(self) -> str:
        b = self.breakdown
        planned = (
            f", planned saving={format_bytes(self.plan_saving_bytes)} "
            f"[{self.plan_saving_fraction:.0%} of no-reuse peak "
            f"{format_bytes(self.no_reuse_peak_tile_bytes)}]"
            if self.planned
            else ""
        )
        return (
            f"MemoryReport(total={format_bytes(self.total_bytes)}, "
            f"peak tile={format_bytes(self.peak_tile_bytes)}, "
            f"free={format_bytes(self.free_bytes)}, "
            f"variables={format_bytes(b.variables)}, "
            f"overhead={format_bytes(b.overhead)} "
            f"[{b.overhead_fraction:.0%}]{planned})"
        )


def memory_section(memory: MemoryReport) -> dict:
    """The ``memory`` section of a ``repro.run/1`` manifest.

    Totals are copied verbatim — ``total_bytes``/``peak_tile_bytes``/
    ``free_bytes`` equal *memory*'s exactly — and the per-tile byte
    distribution is folded into fixed log-spaced buckets so manifests
    stay small and comparable at any tile count.
    """
    hist = Histogram(edges=DEFAULT_BYTES_EDGES)
    hist.observe_many(float(b) for b in memory.per_tile_bytes)
    b = memory.breakdown
    section = {
        "n_tiles": int(len(memory.per_tile_bytes)),
        "usable_tile_bytes": float(memory.spec.usable_tile_memory),
        "total_bytes": float(memory.total_bytes),
        "peak_tile_bytes": float(memory.peak_tile_bytes),
        "free_bytes": float(memory.free_bytes),
        "fits": bool(memory.fits),
        "breakdown": {
            "variables": float(b.variables),
            "vertex_state": float(b.vertex_state),
            "edge_code": float(b.edge_code),
            "control_code": float(b.control_code),
            "codelet_code": float(b.codelet_code),
            "exchange_buffers": float(b.exchange_buffers),
        },
        "per_tile_histogram": hist.snapshot_value(),
    }
    if memory.planned:
        # Planned compiles carry the no-reuse comparison so the
        # reclaimed headroom is readable straight off the manifest.
        section["planned"] = True
        section["peak_planned_bytes"] = float(memory.peak_planned_bytes)
        section["no_reuse_peak_tile_bytes"] = float(
            memory.no_reuse_peak_tile_bytes
        )
        section["plan_saving_bytes"] = float(memory.plan_saving_bytes)
        section["plan_saving_fraction"] = float(
            memory.plan_saving_fraction
        )
    return section


@dataclass(frozen=True)
class GraphProfile:
    """The Fig 5 / Fig 7 quantities for one graph."""

    n_variables: int
    n_vertices: int
    n_edges: int
    n_compute_sets: int
    variable_bytes: int
    total_bytes: float
    free_bytes: float
    fits: bool
    #: Peak per-tile footprint (planned footprint for planned compiles).
    peak_tile_bytes: float = 0.0
    #: Peak per-tile footprint without buffer reuse.
    no_reuse_peak_tile_bytes: float = 0.0
    #: True when the compile ran the memory planner.
    planned: bool = False

    @property
    def plan_saving_fraction(self) -> float:
        """Reclaimed fraction of the no-reuse peak (0 when unplanned)."""
        if self.no_reuse_peak_tile_bytes <= 0:
            return 0.0
        return (
            self.no_reuse_peak_tile_bytes - self.peak_tile_bytes
        ) / self.no_reuse_peak_tile_bytes


@dataclass(frozen=True)
class GraphSummary:
    """Structural statistics standing in for a :class:`Graph`.

    A warm :func:`cached_compile` hit skips graph *construction*
    entirely, so there is no ``Graph`` object to attach — the summary
    (persisted in the cache record) carries exactly the fields
    :meth:`CompiledGraph.profile` needs.  Anything that must execute the
    program (:class:`~repro.ipu.executor.Executor`) needs a real graph;
    use :func:`compile_graph` directly for that.
    """

    name: str
    n_tiles: int
    n_variables: int
    n_vertices: int
    n_edges: int
    n_compute_sets: int
    total_variable_bytes: int

    def variable_bytes(self) -> int:
        return self.total_variable_bytes


@dataclass
class CompiledGraph:
    """A graph plus its compilation artefacts.

    ``excluded_tiles``/``tile_map`` record a degraded compilation: when
    tiles are excluded (permanent tile failures), every logical tile of
    the graph is folded onto a surviving physical tile and ``tile_map``
    holds that logical -> physical mapping (``None`` for a healthy
    compile, where the mapping is the identity).

    ``graph`` is usually the real :class:`Graph`; a warm
    :func:`cached_compile` hit substitutes a :class:`GraphSummary`
    (enough for :meth:`profile`, not for execution).
    """

    graph: Graph | GraphSummary
    spec: IPUSpec
    memory: MemoryReport
    excluded_tiles: frozenset[int] = frozenset()
    tile_map: np.ndarray | None = None
    #: Slot assignment when compiled with ``plan_memory=True`` (None for
    #: unplanned compiles and for planned cache hits, where
    #: :meth:`memory_plan` recomputes it deterministically on demand).
    plan: MemoryPlan | None = None
    #: Per-compute-set :class:`~repro.ipu.executor.StepTiming` memo, filled
    #: lazily by the executor.  Never set at compile time nor cached:
    #: codelet cost models can be swapped between compiles (ablations).
    cs_timings: list | None = field(default=None, repr=False, compare=False)

    def memory_plan(self) -> MemoryPlan | None:
        """The memory plan of a planned compile, recomputed if needed.

        A planned cache hit carries the planned *footprint* but not the
        slot assignment; planning is deterministic, so it is recomputed
        from the real graph here.  Returns ``None`` for unplanned
        compiles and for warm hits that only have a
        :class:`GraphSummary`.
        """
        if self.plan is not None:
            return self.plan
        if not self.memory.planned or not isinstance(self.graph, Graph):
            return None
        self.plan = _plan_memory(self.graph)
        return self.plan

    def profile(self) -> GraphProfile:
        """Summarise into the Fig 5 quantities."""
        g = self.graph
        return GraphProfile(
            n_variables=g.n_variables,
            n_vertices=g.n_vertices,
            n_edges=g.n_edges,
            n_compute_sets=g.n_compute_sets,
            variable_bytes=g.variable_bytes(),
            total_bytes=self.memory.total_bytes,
            free_bytes=self.memory.free_bytes,
            fits=self.memory.fits,
            peak_tile_bytes=self.memory.peak_tile_bytes,
            no_reuse_peak_tile_bytes=self.memory.no_reuse_peak_tile_bytes,
            planned=self.memory.planned,
        )


def cs_tile_sum(
    cs: np.ndarray,
    tile: np.ndarray,
    weights: np.ndarray,
    n_cs: int,
    n_tiles: int,
) -> np.ndarray:
    """``(n_cs, n_tiles)`` grid of per-vertex *weights* summed by key.

    ``np.bincount`` adds the weights in vertex order, so the float sums
    match a vertex-by-vertex walk bit for bit.
    """
    sums = np.bincount(
        cs * n_tiles + tile, weights=weights, minlength=n_cs * n_tiles
    )
    return sums.reshape(n_cs, n_tiles)


def _tile_fold_map(
    n_tiles: int, excluded: frozenset[int]
) -> np.ndarray:
    """Logical -> physical mapping folding work off excluded tiles.

    Logical tiles are assigned round-robin over the surviving tiles, so a
    degraded device carries ``n_tiles / n_surviving`` logical tiles per
    physical tile.  Placement does not affect exchange cost (Observation
    1: the fabric is distance-free), only per-tile memory and the
    serialised compute of co-located logical tiles.
    """
    surviving = np.array(
        [t for t in range(n_tiles) if t not in excluded], dtype=np.int64
    )
    return surviving[np.arange(n_tiles) % len(surviving)]


# -- content addressing --------------------------------------------------------


def _update_param(h, value: Any) -> None:
    """Feed one param value (column, tuple or scalar) to *h*."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        h.update(f"a{value.dtype.str}{value.shape}|".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list, np.ndarray)):
        h.update(f"t{len(value)}|".encode())
        for item in value:
            _update_param(h, item)
    else:
        h.update(f"s{value!r}|".encode())


def graph_fingerprint(graph: Graph) -> str:
    """Structural hash of everything the memory accounting reads.

    Covers tile count, every variable's layout, every vertex batch
    (compute set, codelet, tile column, each port's variable, direction,
    locality and ``n_elements`` column, and every param column or
    broadcast value) and the compute-set names and program — but *not*
    edge keys nor the graph's display name, so two identically-built
    graphs hash equal regardless of labelling.  The walk costs one hash
    update per column; builders that can name their output cheaply
    attach ``graph.provenance`` instead (see :func:`compile_cache_key`).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(f"tiles|{graph.n_tiles}\n".encode())
    for name in sorted(graph.variables):
        v = graph.variables[name]
        h.update(
            f"V|{name}|{v.shape}|{v.element_bytes}"
            f"|{v.home_tile}|{v.tile_span}\n".encode()
        )
    for batch in graph.batches:
        h.update(f"B|{batch.cs}|{batch.codelet}|{batch.n}\n".encode())
        h.update(batch.tiles.tobytes())
        for direction, edges in (("i", batch.inputs), ("o", batch.outputs)):
            for edge in edges:
                h.update(f"{direction}|{edge.var}|{int(edge.local)}|".encode())
                h.update(edge.n_elements.tobytes())
        for name in sorted(batch.params):
            h.update(f"p|{name}|".encode())
            _update_param(h, batch.params[name])
    for cs in graph.compute_sets:
        h.update(f"C|{cs.name}\n".encode())
    for step in graph.program:
        h.update(f"P|{step.kind}|{step.ref}\n".encode())
    return h.hexdigest()


def _identity_parts(graph: Graph) -> tuple:
    provenance = getattr(graph, "provenance", None)
    if provenance is not None:
        return ("provenance",) + tuple(provenance)
    return ("fingerprint", graph_fingerprint(graph))


def _key_from_parts(
    identity: tuple,
    spec: IPUSpec,
    excluded: frozenset[int],
    planned: bool = False,
) -> str:
    parts = [
        identity,
        dataclass_key(spec),
        ("exclude",) + tuple(sorted(excluded)),
    ]
    if planned:
        # Unplanned keys stay byte-identical to earlier cache versions;
        # planned compiles get their own namespace.
        parts.append(("plan", "linear-scan-v1"))
    return canonical_key(*parts)


def compile_cache_key(
    graph: Graph,
    spec: IPUSpec,
    exclude_tiles: "frozenset[int] | set[int] | None" = None,
    plan_memory: bool = False,
) -> str:
    """The content-addressed cache key of one ``compile_graph`` call.

    Combines the graph's identity — its ``provenance`` tuple when a
    builder attached one, else the full structural
    :func:`graph_fingerprint` — with **every** :class:`IPUSpec` field,
    the sorted excluded-tile set, and (for planned compiles) the memory
    planner version.  ``check_fit`` is deliberately not part of the key:
    it changes only whether an OOM report raises, never the computed
    artefacts.  ``plan_memory`` *is* part of it: a planned compile
    produces a different per-tile footprint.
    """
    excluded = frozenset(int(t) for t in (exclude_tiles or ()))
    return _key_from_parts(
        _identity_parts(graph), spec, excluded, planned=plan_memory
    )


def _record_from(compiled: CompiledGraph) -> CacheRecord:
    """Encode a compilation's artefacts as a cacheable record."""
    g = compiled.graph
    b = compiled.memory.breakdown
    arrays = {
        "per_tile_bytes": np.asarray(
            compiled.memory.per_tile_bytes, dtype=np.float64
        ),
        "breakdown": np.array(
            [
                b.variables,
                b.vertex_state,
                b.edge_code,
                b.control_code,
                b.codelet_code,
                b.exchange_buffers,
            ],
            dtype=np.float64,
        ),
        "excluded": np.array(
            sorted(compiled.excluded_tiles), dtype=np.int64
        ),
    }
    if compiled.tile_map is not None:
        arrays["tile_map"] = np.asarray(compiled.tile_map, dtype=np.int64)
    if compiled.memory.no_reuse_per_tile_bytes is not None:
        arrays["no_reuse_per_tile"] = np.asarray(
            compiled.memory.no_reuse_per_tile_bytes, dtype=np.float64
        )
    meta = {
        "graph": {
            "name": g.name,
            "n_tiles": int(g.n_tiles),
            "n_variables": int(g.n_variables),
            "n_vertices": int(g.n_vertices),
            "n_edges": int(g.n_edges),
            "n_compute_sets": int(g.n_compute_sets),
            "variable_bytes": int(g.variable_bytes()),
        },
        "spec": compiled.spec.name,
    }
    if compiled.plan is not None:
        meta["plan"] = {
            "n_slots": compiled.plan.n_slots,
            "n_shared_slots": compiled.plan.n_shared_slots,
            "planned_variable_bytes": int(
                compiled.plan.planned_variable_bytes
            ),
            "reuse_fraction": float(compiled.plan.reuse_fraction),
        }
    return CacheRecord(arrays=arrays, meta=meta)


def _compiled_from_record(
    record: CacheRecord, graph: Graph | None, spec: IPUSpec
) -> CompiledGraph:
    """Decode a cache record back into a :class:`CompiledGraph`.

    *graph* is the caller's real graph when one exists (the
    ``compile_graph`` path); ``None`` substitutes a
    :class:`GraphSummary` from the record (the warm
    :func:`cached_compile` path, where no graph was ever built).
    """
    arrays = record.arrays
    breakdown = MemoryBreakdown(*(float(x) for x in arrays["breakdown"]))
    memory = MemoryReport(
        spec=spec,
        per_tile_bytes=arrays["per_tile_bytes"],
        breakdown=breakdown,
        no_reuse_per_tile_bytes=arrays.get("no_reuse_per_tile"),
    )
    tile_map = arrays.get("tile_map")
    if graph is None:
        info = record.meta["graph"]
        graph = GraphSummary(
            name=info["name"],
            n_tiles=int(info["n_tiles"]),
            n_variables=int(info["n_variables"]),
            n_vertices=int(info["n_vertices"]),
            n_edges=int(info["n_edges"]),
            n_compute_sets=int(info["n_compute_sets"]),
            total_variable_bytes=int(info["variable_bytes"]),
        )
    return CompiledGraph(
        graph=graph,
        spec=spec,
        memory=memory,
        excluded_tiles=frozenset(int(t) for t in arrays["excluded"]),
        tile_map=tile_map if tile_map is not None else None,
    )


def _raise_oom(
    name: str, report: MemoryReport, excluded: frozenset[int]
) -> None:
    bad = report.over_capacity_tiles()
    degraded = f" with {len(excluded)} tiles excluded" if excluded else ""
    log = get_logger()
    if log.enabled:
        log.error(
            "compile.oom",
            graph=name,
            over_capacity_tiles=len(bad),
            peak_tile_bytes=report.peak_tile_bytes,
            usable_tile_bytes=report.spec.usable_tile_memory,
        )
    raise IPUOutOfMemoryError(
        f"graph {name!r} exceeds tile memory on {len(bad)} tiles"
        f"{degraded} (peak {format_bytes(report.peak_tile_bytes)} vs "
        f"usable {format_bytes(report.spec.usable_tile_memory)})"
    )


def compile_graph(
    graph: Graph,
    spec: IPUSpec,
    check_fit: bool = True,
    exclude_tiles: "frozenset[int] | set[int] | None" = None,
    cache: CompilationCache | None = None,
    plan_memory: bool = False,
) -> CompiledGraph:
    """Account memory for *graph* on *spec*; optionally raise on OOM.

    ``plan_memory=True`` runs the liveness-driven slot allocator
    (:func:`repro.ipu.memplan.plan_memory`): variables with disjoint
    live ranges share storage, the per-tile footprint charges slot
    capacities instead of every variable, and ``check_fit`` gates on the
    *planned* peak — so problem sizes that OOM unplanned can compile.
    The no-reuse footprint is kept on the report
    (:attr:`MemoryReport.no_reuse_per_tile_bytes`) for comparison.

    ``exclude_tiles`` compiles the graph onto the surviving tile set
    (graceful degradation after permanent tile failures): logical tiles
    fold round-robin onto surviving physical tiles, concentrating both
    memory and compute.  :class:`IPUOutOfMemoryError` is raised only when
    the shrunk SRAM genuinely cannot hold the graph — which is how the
    dead-tile-tolerance sweep quantifies that compressed (butterfly /
    pixelfly) models survive far more failed tiles than the dense
    baseline.

    When a :class:`~repro.cache.CompilationCache` is installed (or
    passed via *cache*), the call is content-addressed: a hit skips the
    accounting entirely and returns a ``CompiledGraph`` whose
    :class:`MemoryReport` is byte-identical to a cold compile's.
    ``check_fit`` is re-applied to cached results, so an over-capacity
    graph raises identically hot or cold.
    """
    if graph.n_tiles > spec.n_tiles:
        raise ValueError(
            f"graph built for {graph.n_tiles} tiles, spec has {spec.n_tiles}"
        )
    excluded = frozenset(int(t) for t in (exclude_tiles or ()))
    for t in excluded:
        if not 0 <= t < spec.n_tiles:
            raise ValueError(
                f"excluded tile {t} out of range [0, {spec.n_tiles})"
            )
    if len(excluded) >= spec.n_tiles:
        raise ValueError(
            f"cannot exclude all {spec.n_tiles} tiles of {spec.name}"
        )
    cache = cache if cache is not None else get_cache()
    key: str | None = None
    if cache.enabled:
        key = _key_from_parts(
            _identity_parts(graph), spec, excluded, planned=plan_memory
        )
        record = cache.lookup(key)
        if record is not None:
            compiled = _compiled_from_record(record, graph, spec)
            if check_fit and not compiled.memory.fits:
                _raise_oom(graph.name, compiled.memory, excluded)
            return compiled
    tracer = get_tracer()
    with tracer.span(
        "compile_graph",
        category="compile",
        graph=graph.name,
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        n_compute_sets=graph.n_compute_sets,
        n_excluded_tiles=len(excluded),
        plan_memory=plan_memory,
    ) as compile_span:
        per_tile = np.zeros(spec.n_tiles, dtype=np.float64)

        # Variable data, spread over each variable's home range.  A
        # planned compile charges slot capacities (variables with
        # disjoint live ranges share storage); the no-reuse shares are
        # kept alongside for the report.
        var_total = 0.0
        var_share = np.zeros(spec.n_tiles, dtype=np.float64)
        plan: MemoryPlan | None = None
        with tracer.span("compile.map_variables", category="compile"):
            for var in graph.variables.values():
                share = var.total_bytes / var.tile_span
                var_share[
                    var.home_tile : var.home_tile + var.tile_span
                ] += share
                var_total += var.total_bytes
        if plan_memory:
            with tracer.span("compile.plan_memory", category="compile"):
                plan = _plan_memory(graph)
            planned_share = np.zeros(spec.n_tiles, dtype=np.float64)
            planned_share[: graph.n_tiles] = plan.per_tile_bytes
            per_tile += planned_share
            var_total = float(plan.planned_variable_bytes)
        else:
            per_tile += var_share

        # Every per-tile charge below is added in vertex order (np.add.at
        # applies its updates sequentially), so the float sums match an
        # object-by-object walk bit for bit.
        with tracer.span("compile.map_vertices", category="compile"):
            vertices = graph.vertex_table()
            n_vertices = len(vertices.tile)
            # Vertex state and edge code on the vertex's tile, interleaved
            # per vertex.
            edge_bytes = vertices.n_edges * spec.edge_code_bytes
            charges = np.empty((n_vertices, 2), dtype=np.float64)
            charges[:, 0] = spec.vertex_state_bytes
            charges[:, 1] = edge_bytes
            np.add.at(per_tile, np.repeat(vertices.tile, 2), charges.ravel())
            vertex_total = float(n_vertices * spec.vertex_state_bytes)
            edge_total = float(edge_bytes.sum())

            # Codelet code: once per codelet type per instantiating tile.
            present = np.zeros(
                (spec.n_tiles, len(vertices.codelets)), dtype=bool
            )
            present[vertices.tile, vertices.codelet] = True
            per_tile += present.sum(axis=1) * spec.codelet_code_bytes
            codelet_total = float(present.sum() * spec.codelet_code_bytes)

        # Control code per compute set on each participating tile, and
        # exchange receive buffers sized by the heaviest superstep per tile.
        with tracer.span("compile.account_supersteps", category="compile"):
            def grid(weights: np.ndarray) -> np.ndarray:
                return cs_tile_sum(
                    vertices.cs, vertices.tile, weights,
                    graph.n_compute_sets, spec.n_tiles,
                )

            recv = grid(vertices.remote_in_elements * 4)
            _, participating = np.nonzero(grid(np.ones(n_vertices)))
            np.add.at(per_tile, participating, float(spec.cs_control_bytes))
            control_total = float(len(participating) * spec.cs_control_bytes)
            recv_peak = recv.max(axis=0, initial=0.0)
            per_tile += recv_peak
        exchange_total = float(recv_peak.sum())

        # The footprint the same graph would have without buffer reuse
        # (identical overheads, full variable charges).
        no_reuse_tile: np.ndarray | None = None
        if plan_memory:
            no_reuse_tile = per_tile - planned_share + var_share

        # Degraded compile: fold every logical tile's load onto its
        # surviving physical tile (receive buffers of co-located logical
        # tiles coexist, so the fold sums them too).  The memory plan is
        # on logical tiles, so a planned degraded compile re-plans the
        # folded footprint automatically.
        tile_map: np.ndarray | None = None
        if excluded:
            with tracer.span("compile.fold_degraded", category="compile"):
                tile_map = _tile_fold_map(spec.n_tiles, excluded)
                folded = np.zeros(spec.n_tiles, dtype=np.float64)
                np.add.at(folded, tile_map, per_tile)
                per_tile = folded
                if no_reuse_tile is not None:
                    folded_nr = np.zeros(spec.n_tiles, dtype=np.float64)
                    np.add.at(folded_nr, tile_map, no_reuse_tile)
                    no_reuse_tile = folded_nr

        breakdown = MemoryBreakdown(
            variables=var_total,
            vertex_state=vertex_total,
            edge_code=edge_total,
            control_code=control_total,
            codelet_code=codelet_total,
            exchange_buffers=exchange_total,
        )
        report = MemoryReport(
            spec=spec,
            per_tile_bytes=per_tile,
            breakdown=breakdown,
            no_reuse_per_tile_bytes=no_reuse_tile,
        )
        if tracer.enabled:
            compile_span.attributes.update(
                peak_tile_bytes=report.peak_tile_bytes,
                total_bytes=report.total_bytes,
                fits=report.fits,
            )
            counter_fields = {
                "peak_tile_bytes": report.peak_tile_bytes,
                "total_bytes": report.total_bytes,
                "variable_bytes": breakdown.variables,
                "overhead_bytes": breakdown.overhead,
            }
            if report.planned:
                compile_span.attributes.update(
                    peak_planned_bytes=report.peak_planned_bytes,
                    no_reuse_peak_tile_bytes=(
                        report.no_reuse_peak_tile_bytes
                    ),
                )
                counter_fields["peak_planned_bytes"] = (
                    report.peak_planned_bytes
                )
                counter_fields["no_reuse_peak_tile_bytes"] = (
                    report.no_reuse_peak_tile_bytes
                )
            tracer.counter("compile.memory", counter_fields)
        registry = get_registry()
        if registry.enabled:
            # The Fig 5 quantities (graph structure) as gauges, the Fig 7
            # memory split as gauges, and the per-tile byte distribution
            # as a fixed-bucket histogram — all keyed by graph name so a
            # sweep's sizes stay distinguishable in the manifest.
            name = graph.name
            registry.counter("compile.graphs").inc()
            for metric, value in (
                ("compile.variables", graph.n_variables),
                ("compile.vertices", graph.n_vertices),
                ("compile.edges", graph.n_edges),
                ("compile.compute_sets", graph.n_compute_sets),
                ("compile.peak_tile_bytes", report.peak_tile_bytes),
                ("compile.total_bytes", report.total_bytes),
                ("compile.variable_bytes", breakdown.variables),
                ("compile.overhead_bytes", breakdown.overhead),
                ("compile.free_bytes", report.free_bytes),
            ):
                registry.gauge(metric, graph=name).set(value)
            if report.planned and plan is not None:
                for metric, value in (
                    ("compile.peak_planned_bytes",
                     report.peak_planned_bytes),
                    ("compile.no_reuse_peak_bytes",
                     report.no_reuse_peak_tile_bytes),
                    ("compile.plan_reuse_fraction",
                     plan.reuse_fraction),
                    ("compile.plan_slots", plan.n_slots),
                ):
                    registry.gauge(metric, graph=name).set(value)
            registry.histogram(
                "compile.tile_bytes", edges=DEFAULT_BYTES_EDGES, graph=name
            ).observe_many(per_tile)
    compiled = CompiledGraph(
        graph=graph,
        spec=spec,
        memory=report,
        excluded_tiles=excluded,
        tile_map=tile_map,
        plan=plan,
    )
    if cache.enabled and key is not None:
        # Unfitting graphs are cached too: the OOM outcome is a pure
        # function of the report, and is re-raised on every hit below.
        cache.store(key, _record_from(compiled))
    if check_fit and not report.fits:
        _raise_oom(graph.name, report, excluded)
    return compiled


def cached_compile(
    provenance: tuple,
    build: Callable[[], Graph],
    spec: IPUSpec,
    check_fit: bool = True,
) -> CompiledGraph:
    """Compile-by-provenance: skip graph *construction* on a warm hit.

    :func:`compile_graph` can only be reached with a built graph, so a
    hit there still pays the (often dominant) cost of building it.
    ``cached_compile`` keys on *provenance* — a canonical description of
    what *build* would construct, e.g.
    ``("poplin.matmul", m, n, k, codelet, host_io)`` — and calls *build*
    only on a miss.  A hit returns a :class:`CompiledGraph` carrying a
    :class:`GraphSummary` in place of the graph: sufficient for
    :meth:`CompiledGraph.profile` and memory queries, not for execution.

    The provenance tuple is also attached to the built graph, so a
    plain ``compile_graph`` of the same construction shares the key.
    It compiles onto every tile, without the memory planner.
    """
    excluded: frozenset[int] = frozenset()
    provenance = tuple(provenance)
    cache = get_cache()
    if cache.enabled:
        key = _key_from_parts(
            ("provenance",) + provenance, spec, excluded, planned=False
        )
        record = cache.lookup(key)
        if record is not None:
            compiled = _compiled_from_record(record, None, spec)
            if check_fit and not compiled.memory.fits:
                _raise_oom(compiled.graph.name, compiled.memory, excluded)
            return compiled
    graph = build()
    graph.provenance = provenance
    if not cache.enabled:
        return compile_graph(graph, spec, check_fit=check_fit)
    # The lookup above already counted this key's miss; compile uncached
    # and store under the same key so hot and cold stats stay exact.
    # Fit checking happens after the store: OOM outcomes are cached and
    # re-raised on hits just like compile_graph's own cached path.
    compiled = compile_graph(graph, spec, check_fit=False, cache=NULL_CACHE)
    cache.store(key, _record_from(compiled))
    if check_fit and not compiled.memory.fits:
        _raise_oom(graph.name, compiled.memory, excluded)
    return compiled
