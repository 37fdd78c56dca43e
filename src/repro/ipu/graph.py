"""Poplar-like dataflow graph: variables, vertices, edges, compute sets.

IPU programs are graphs of *vertices* (codelet instances mapped to tiles)
connected via *edges* to slices of *variables* (tensors spread over tile
memory), grouped into *compute sets* executed as BSP supersteps.  The
compiler (:mod:`repro.ipu.compiler`) accounts memory from exactly these
structures — which is how the Fig 5 / Fig 7 "memory grows with vertices,
edges and compute sets" behaviour arises structurally rather than by fiat.

Vertices are stored as columns, not objects.  Builders emit one
:meth:`Graph.add_vertices` batch per (compute set, codelet, port layout):
a tile column, one :class:`Edge` per port whose element count and slice
bounds may be columns, and cost-param columns.  The compiler and executor
read the flat :meth:`Graph.vertex_table`, built straight from the batch
columns, and evaluate codelet costs per batch.  Only the liveness pass
(planned compiles) reads :meth:`Graph.edge_table`, so it is built on
first request.  Port keys are stored as int32 ``(start, stop)`` pairs;
:meth:`Graph.vertices_in` decodes them when it rebuilds one compute set's
:class:`Vertex` records for numeric execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.ipu.vertices import CODELETS

__all__ = [
    "Variable",
    "Edge",
    "Vertex",
    "VertexBatch",
    "VertexTable",
    "EdgeTable",
    "ComputeSet",
    "Graph",
    "ProgramStep",
]


@dataclass
class Variable:
    """A tensor spread across a contiguous range of tile memories.

    ``home_tile``/``tile_span`` describe the layout: elements are split as
    evenly as possible over ``tile_span`` tiles starting at ``home_tile``.
    """

    name: str
    shape: tuple[int, ...]
    element_bytes: int = 4
    home_tile: int = 0
    tile_span: int = 1

    def __post_init__(self) -> None:
        if self.tile_span <= 0:
            raise ValueError(f"tile_span must be positive, got {self.tile_span}")
        if self.home_tile < 0:
            raise ValueError(f"home_tile must be >= 0, got {self.home_tile}")

    @property
    def n_elements(self) -> int:
        return int(math.prod(self.shape))

    @property
    def total_bytes(self) -> int:
        return self.n_elements * self.element_bytes

    def tiles(self) -> range:
        """The tile range hosting this variable."""
        return range(self.home_tile, self.home_tile + self.tile_span)


@dataclass
class Edge:
    """A connection between a vertex port and (a slice of) a variable.

    ``key`` is an optional numeric index for numeric execution: an int,
    a unit-step slice, or a tuple of those.  ``n_elements`` is the element
    count the edge touches (used for exchange and code-size accounting
    even when ``key`` is omitted).  ``local`` marks edges whose data the
    planner placed on the consuming vertex's own tile, exempting them
    from exchange cost.

    In :meth:`Graph.add_vertices` one ``Edge`` describes one port of every
    vertex in the batch: ``n_elements``, int indices and slice bounds may
    then be columns (one value per vertex).
    """

    var: str
    n_elements: Any
    key: Any = None
    local: bool = False

    def __post_init__(self) -> None:
        # Columns are checked by Graph.add_vertices, which names the batch.
        if not isinstance(self.n_elements, np.ndarray) and self.n_elements < 0:
            raise ValueError(f"n_elements must be >= 0, got {self.n_elements}")


@dataclass
class Vertex:
    """One codelet instance mapped to one tile (a single-row record)."""

    codelet: str
    tile: int
    inputs: list[Edge] = field(default_factory=list)
    outputs: list[Edge] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class VertexBatch:
    """One :meth:`Graph.add_vertices` call: vertices ``[start, start + n)``.

    Every vertex of a batch runs ``codelet`` in compute set ``cs`` and has
    the same ports.  Port ``n_elements`` are int64 columns and port keys
    are ``(n, axes, 2)`` int32 arrays of ``(start, stop)`` pairs (``stop``
    of -1 marks an int index) or ``None``; only :meth:`Graph.vertices_in`
    reads keys.  A param is a column when it is an ndarray and one
    broadcast value otherwise.  Codelet cost functions take the batch and
    return one cycle count per vertex (or a scalar).  The vertex table's
    columns come from the batches directly; the edge table, one row per
    (vertex, port), is built only for the liveness pass.
    """

    cs: int
    codelet: str
    start: int
    tiles: np.ndarray
    inputs: list[Edge]
    outputs: list[Edge]
    params: dict[str, Any]

    @property
    def n(self) -> int:
        return len(self.tiles)

    @property
    def stop(self) -> int:
        return self.start + self.n


@dataclass(frozen=True)
class VertexTable:
    """All vertices as parallel columns, indexed by vertex id."""

    tile: np.ndarray
    #: Index into :attr:`codelets`.
    codelet: np.ndarray
    cs: np.ndarray
    n_edges: np.ndarray
    #: Elements each vertex receives over the exchange (non-local inputs).
    remote_in_elements: np.ndarray
    codelets: tuple[str, ...]


@dataclass(frozen=True)
class EdgeTable:
    """All edges as parallel columns (batch by batch, port by port)."""

    vertex: np.ndarray
    #: Index into ``list(graph.variables)``.
    var: np.ndarray
    n_elements: np.ndarray
    local: np.ndarray
    #: True for output (def) edges, False for input (use) edges.
    output: np.ndarray


@dataclass
class ComputeSet:
    """A named group of vertices executed as one BSP superstep."""

    name: str


@dataclass
class ProgramStep:
    """One step of the program: a compute set, or host I/O.

    ``kind`` is one of ``'compute'`` (``ref`` = compute-set index),
    ``'host_write'`` or ``'host_read'`` (``ref`` = var name).
    """

    kind: str
    ref: Any

    _KINDS = ("compute", "host_write", "host_read")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


def _column(value: Any, n: int, what: str) -> np.ndarray:
    """*value* as an int64 column of length *n* (scalars broadcast)."""
    if isinstance(value, (int, np.integer)):
        return np.full(n, value, dtype=np.int64)
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n, int(arr), dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({n},)")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integers, got {arr.dtype}")
    return arr.astype(np.int64)  # a copy: callers may reuse their arrays


#: Port keys are stored as ``(start, stop)`` pairs of this type, so a
#: keyed axis must have fewer than 2**31 elements.
_KEY_DTYPE = np.int32


def _encode_key(key: Any, var: Variable, n: int) -> np.ndarray | None:
    """A port key as ``(n, axes, 2)`` ``(start, stop)`` pairs, or None."""
    if key is None:
        return None
    axes = key if isinstance(key, tuple) else (key,)
    if len(axes) > len(var.shape):
        raise ValueError(
            f"key has {len(axes)} axes, the variable {len(var.shape)}"
        )
    out = np.empty((n, len(axes), 2), dtype=_KEY_DTYPE)
    for axis, entry in enumerate(axes):
        dim = var.shape[axis]
        if dim >= 2**31:
            raise ValueError(
                f"variable {var.name!r} axis {axis} has {dim} elements; "
                "a keyed axis must have fewer than 2**31"
            )
        if isinstance(entry, slice):
            if entry.step not in (None, 1):
                raise ValueError("key slices must have unit step")
            if np.ndim(entry.start) == 0 and np.ndim(entry.stop) == 0:
                start, stop, _ = entry.indices(dim)
            else:
                start = _column(
                    0 if entry.start is None else entry.start, n, "key start"
                )
                stop = _column(
                    dim if entry.stop is None else entry.stop, n, "key stop"
                )
                for bound in (start, stop):
                    if ((bound < 0) | (bound > dim)).any():
                        raise ValueError(f"key slice bounds outside [0, {dim}]")
            out[:, axis, 0] = start
            out[:, axis, 1] = stop
        elif isinstance(entry, (int, np.integer, np.ndarray)):
            index = _column(entry, n, "key index")
            if ((index < -dim) | (index >= dim)).any():
                raise ValueError(f"key index outside [-{dim}, {dim})")
            out[:, axis, 0] = np.where(index < 0, index + dim, index)
            out[:, axis, 1] = -1
        else:
            raise ValueError(
                f"key must be ints and unit-step slices, got {entry!r}"
            )
    return out


def _decode_key(pairs: list | None) -> Any:
    if pairs is None:
        return None
    return tuple(
        start if stop < 0 else slice(start, stop) for start, stop in pairs
    )


def _cat(parts: list) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


def _per_row(
    batches: list[VertexBatch], values: list, dtype=np.int64
) -> np.ndarray:
    """One value per batch, repeated over each batch's rows."""
    sizes = np.array([b.n for b in batches], dtype=np.int64)
    return np.repeat(np.array(values, dtype=dtype), sizes)


def _records(b: VertexBatch, rows: slice) -> list[Vertex]:
    """:class:`Vertex` records for *rows* of batch *b*."""

    def edges(port: list[Edge]) -> list[tuple]:
        return [
            (
                e.var,
                e.n_elements[rows].tolist(),
                [None] * len(e.n_elements[rows])
                if e.key is None
                else e.key[rows].tolist(),
                e.local,
            )
            for e in port
        ]

    inputs, outputs = edges(b.inputs), edges(b.outputs)
    columns = {
        name: value[rows].tolist()
        for name, value in b.params.items()
        if isinstance(value, np.ndarray)
    }
    tiles = b.tiles[rows].tolist()
    return [
        Vertex(
            codelet=b.codelet,
            tile=tile,
            inputs=[
                Edge(var, counts[j], _decode_key(keys[j]), local)
                for var, counts, keys, local in inputs
            ],
            outputs=[
                Edge(var, counts[j], _decode_key(keys[j]), local)
                for var, counts, keys, local in outputs
            ],
            params={
                name: columns[name][j] if name in columns else value
                for name, value in b.params.items()
            },
        )
        for j, tile in enumerate(tiles)
    ]


class Graph:
    """A complete IPU program: variables + vertex columns + a program."""

    def __init__(self, n_tiles: int, name: str = "graph") -> None:
        if n_tiles <= 0:
            raise ValueError(f"n_tiles must be positive, got {n_tiles}")
        self.n_tiles = n_tiles
        self.name = name
        self.variables: dict[str, Variable] = {}
        self.compute_sets: list[ComputeSet] = []
        self.program: list[ProgramStep] = []
        #: The vertex columns, one row group per ``add_vertices`` call.
        self.batches: list[VertexBatch] = []
        self._n_vertices = 0
        self._n_edges = 0
        self._vertex_table: VertexTable | None = None
        self._edge_table: EdgeTable | None = None
        #: Optional canonical construction identity, set by builders that
        #: can describe their output cheaply (e.g. ``("poplin.matmul",
        #: m, n, k, codelet, host_io)``).  The compilation cache keys on
        #: it when present, sparing the full structural fingerprint walk;
        #: builders must only set it when the tuple determines the graph
        #: completely (given the spec).
        self.provenance: tuple | None = None

    # -- construction --------------------------------------------------------

    def add_variable(
        self,
        name: str,
        shape: tuple[int, ...],
        element_bytes: int = 4,
        home_tile: int = 0,
        tile_span: int | None = None,
    ) -> Variable:
        """Register a variable; default layout spreads it over all tiles."""
        if name in self.variables:
            raise ValueError(f"variable {name!r} already exists")
        if tile_span is None:
            tile_span = self.n_tiles - home_tile
        if home_tile + tile_span > self.n_tiles:
            raise ValueError(
                f"variable {name!r} layout [{home_tile}, "
                f"{home_tile + tile_span}) exceeds {self.n_tiles} tiles"
            )
        var = Variable(
            name=name,
            shape=tuple(shape),
            element_bytes=element_bytes,
            home_tile=home_tile,
            tile_span=tile_span,
        )
        self.variables[name] = var
        return var

    def add_vertices(
        self,
        compute_set: int,
        codelet: str,
        tiles,
        inputs: list[Edge] = (),
        outputs: list[Edge] = (),
        params: dict[str, Any] | None = None,
    ) -> range:
        """Add one vertex per entry of *tiles* to compute set *compute_set*.

        Each input/output :class:`Edge` is one port of every new vertex;
        its ``n_elements`` and key bounds are scalars or columns.  A param
        given as a list or ndarray is a column (copied), anything else
        broadcasts.
        Returns the new vertex ids.  Raises :class:`ValueError` naming the
        compute set, codelet, variable or param at fault.
        """
        if not 0 <= compute_set < len(self.compute_sets):
            raise ValueError(f"no compute set with index {compute_set}")

        def fail(problem: str) -> ValueError:
            cs_name = self.compute_sets[compute_set].name
            return ValueError(
                f"{codelet} vertices in compute set {cs_name!r}: {problem}"
            )

        registered = CODELETS.get(codelet)
        if registered is None:
            raise fail(f"codelet {codelet!r} is not registered")
        tiles = np.asarray(tiles)
        if tiles.ndim != 1 or (tiles.dtype.kind not in "iu" and tiles.size):
            raise fail("tiles must be a 1-D integer sequence")
        tiles = tiles.astype(np.int64)
        n = len(tiles)
        # One reduction checks both bounds: negative tiles wrap to huge
        # unsigned values.
        if n and tiles.view(np.uint64).max() >= self.n_tiles:
            bad = tiles[(tiles < 0) | (tiles >= self.n_tiles)][0]
            raise fail(f"vertex tile {bad} out of range [0, {self.n_tiles})")
        params = dict(params or {})
        for name in registered.params:
            if name not in params:
                raise fail(f"missing cost param {name!r}")
        for name, value in params.items():
            if not isinstance(value, (list, np.ndarray)):
                continue
            value = params[name] = np.array(value)
            if value.shape != (n,):
                raise fail(
                    f"param {name!r} column has shape {value.shape}, "
                    f"expected ({n},)"
                )
        ports = ([], [])
        for side, edges in zip(ports, (inputs, outputs)):
            for edge in edges:
                var = self.variables.get(edge.var)
                if var is None:
                    raise fail(f"edge references unknown variable {edge.var!r}")
                try:
                    count = _column(edge.n_elements, n, "n_elements")
                    if n and count.min() < 0:
                        raise ValueError("negative n_elements")
                    key = _encode_key(edge.key, var, n)
                except ValueError as exc:
                    raise fail(f"edge to {edge.var!r}: {exc}") from None
                side.append(Edge(edge.var, count, key, bool(edge.local)))
        start = self._n_vertices
        if n == 0:
            return range(start, start)
        self.batches.append(
            VertexBatch(
                cs=compute_set,
                codelet=codelet,
                start=start,
                tiles=tiles,
                inputs=ports[0],
                outputs=ports[1],
                params=params,
            )
        )
        self._n_vertices += n
        self._n_edges += n * (len(ports[0]) + len(ports[1]))
        self._vertex_table = self._edge_table = None
        return range(start, start + n)

    def add_compute_set(self, name: str) -> int:
        """Create a compute set and append it to the program."""
        cs_id = len(self.compute_sets)
        self.compute_sets.append(ComputeSet(name=name))
        self.program.append(ProgramStep("compute", cs_id))
        return cs_id

    def add_host_write(self, var: str) -> None:
        """Schedule a host -> device stream of *var*."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        self.program.append(ProgramStep("host_write", var))

    def add_host_read(self, var: str) -> None:
        """Schedule a device -> host stream of *var*."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        self.program.append(ProgramStep("host_read", var))

    # -- column views -----------------------------------------------------------

    def vertex_table(self) -> VertexTable:
        """All vertices as columns (cached until the next add_vertices)."""
        if self._vertex_table is None:
            self._vertex_table = self._build_vertex_table()
        return self._vertex_table

    def edge_table(self) -> EdgeTable:
        """All edges as columns (cached until the next add_vertices).

        Built on the first call; only the liveness pass makes one.
        """
        if self._edge_table is None:
            self._edge_table = self._build_edge_table()
        return self._edge_table

    def _build_vertex_table(self) -> VertexTable:
        batches = self.batches
        codelets: dict[str, int] = {}
        # Each batch's non-local input columns, summed in place so that
        # the table forms no per-edge rows.
        remote_in = np.zeros(self._n_vertices, dtype=np.int64)
        for b in batches:
            for e in b.inputs:
                if not e.local:
                    remote_in[b.start : b.stop] += e.n_elements
        return VertexTable(
            tile=_cat([b.tiles for b in batches]),
            codelet=_per_row(
                batches,
                [codelets.setdefault(b.codelet, len(codelets)) for b in batches],
            ),
            cs=_per_row(batches, [b.cs for b in batches]),
            n_edges=_per_row(
                batches, [len(b.inputs) + len(b.outputs) for b in batches]
            ),
            remote_in_elements=remote_in,
            codelets=tuple(codelets),
        )

    def _build_edge_table(self) -> EdgeTable:
        var_ids = {name: i for i, name in enumerate(self.variables)}
        ports = [
            (b, e, output)
            for b in self.batches
            for output, edges in ((False, b.inputs), (True, b.outputs))
            for e in edges
        ]
        port_batches = [b for b, _, _ in ports]
        return EdgeTable(
            vertex=_cat([np.arange(b.start, b.stop) for b in port_batches]),
            var=_per_row(port_batches, [var_ids[e.var] for _, e, _ in ports]),
            n_elements=_cat([e.n_elements for _, e, _ in ports]),
            local=_per_row(port_batches, [e.local for _, e, _ in ports], bool),
            output=_per_row(port_batches, [out for _, _, out in ports], bool),
        )

    def vertices_in(self, cs: int) -> Iterator[Vertex]:
        """Records of compute set *cs*'s vertices, in vertex-id order."""
        for b in self.batches:
            if b.cs == cs:
                yield from _records(b, slice(None))

    # -- statistics -----------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def n_compute_sets(self) -> int:
        return len(self.compute_sets)

    def variable_bytes(self) -> int:
        """Total bytes of all variables."""
        return sum(v.total_bytes for v in self.variables.values())

    def codelets_used(self) -> set[str]:
        """Distinct codelet names instantiated anywhere in the graph."""
        return {b.codelet for b in self.batches}

    def vertex_output_variables(self) -> set[str]:
        """Variables written by some vertex output edge."""
        return {e.var for b in self.batches for e in b.outputs}

    def __repr__(self) -> str:
        return (
            f"Graph({self.name!r}: {self.n_variables} vars, "
            f"{self.n_vertices} vertices, {self.n_edges} edges, "
            f"{self.n_compute_sets} compute sets)"
        )
