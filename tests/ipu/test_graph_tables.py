"""The graph's column tables against an edge-row reference.

``Graph.vertex_table`` sums each batch's non-local input columns in
place, and ``Graph.edge_table`` is built only when the liveness pass asks
for it.  The reference below forms every port as edge rows and sums them
per vertex with ``np.bincount``.  Port keys are int32 pairs; the
reference encoding stores them as int64.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.experiments.config import METHODS, shl_model
from repro.ipu import graph as graph_module
from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.graph import Edge, EdgeTable, Graph, VertexTable
from repro.ipu.machine import GC2, GC200
from repro.ipu.poplin import build_matmul_graph
from repro.ipu.poptorch import lower_model
from repro.verify.gen import build_model, generate_cases
from tests.ipu.test_ir_golden import graphs as golden_graphs

FUZZ_CASES = generate_cases(seed=5, n=6)


def _builders() -> dict:
    """``{case id: graph builder}`` over every table-equivalence case."""
    builders = {
        f"golden/{name}": case[0] for name, case in golden_graphs().items()
    }
    for method in METHODS:
        builders[f"shl/{method}"] = lambda m=method: lower_model(
            shl_model(m), GC200, 50, 1024
        )[0]
    for case in FUZZ_CASES:
        builders[f"fuzz/{case.seed}/{case.index}"] = lambda c=case: lower_model(
            build_model(c), c.spec(), c.batch, c.in_features
        )[0]
    return builders


BUILDERS = _builders()


def reference_tables(graph: Graph) -> tuple[VertexTable, EdgeTable]:
    """Both tables from edge rows, the vertex sums by ``np.bincount``."""
    codelets: dict[str, int] = {}
    columns: dict[str, list] = {
        name: [] for name in ("tile", "codelet", "cs", "n_edges")
    }
    rows: dict[str, list] = {
        name: [] for name in ("vertex", "var", "n_elements", "local", "output")
    }
    var_ids = {name: i for i, name in enumerate(graph.variables)}
    for b in graph.batches:
        ids = np.arange(b.start, b.stop)
        columns["tile"].append(b.tiles)
        codelet = codelets.setdefault(b.codelet, len(codelets))
        columns["codelet"].append(np.full(b.n, codelet, dtype=np.int64))
        columns["cs"].append(np.full(b.n, b.cs, dtype=np.int64))
        ports = len(b.inputs) + len(b.outputs)
        columns["n_edges"].append(np.full(b.n, ports, dtype=np.int64))
        for output, edges in ((False, b.inputs), (True, b.outputs)):
            for e in edges:
                rows["vertex"].append(ids)
                var = var_ids[e.var]
                rows["var"].append(np.full(b.n, var, dtype=np.int64))
                rows["n_elements"].append(e.n_elements)
                rows["local"].append(np.full(b.n, e.local))
                rows["output"].append(np.full(b.n, output))

    def cat(parts: list, dtype=np.int64) -> np.ndarray:
        return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

    edges = EdgeTable(
        vertex=cat(rows["vertex"]),
        var=cat(rows["var"]),
        n_elements=cat(rows["n_elements"]),
        local=cat(rows["local"], bool),
        output=cat(rows["output"], bool),
    )
    remote = ~edges.output & ~edges.local
    vertices = VertexTable(
        **{name: cat(parts) for name, parts in columns.items()},
        remote_in_elements=np.bincount(
            edges.vertex[remote],
            weights=edges.n_elements[remote],
            minlength=graph.n_vertices,
        ).astype(np.int64),
        codelets=tuple(codelets),
    )
    return vertices, edges


def assert_tables_equal(actual, expected) -> None:
    for field in dataclasses.fields(expected):
        got = getattr(actual, field.name)
        want = getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            np.testing.assert_array_equal(got, want, err_msg=field.name)
        else:
            assert got == want, field.name


def test_cases_cover_local_remote_and_keyed_ports():
    ports = [
        e
        for name in ("golden/GC200/amp_256", "shl/Pixelfly")
        for b in BUILDERS[name]().batches
        for e in b.inputs
    ]
    assert any(e.local for e in ports) and not all(e.local for e in ports)
    assert any(e.key is not None for e in ports)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_tables_match_edge_row_reference(name):
    graph = BUILDERS[name]()
    vertices, edges = reference_tables(graph)
    assert_tables_equal(graph.vertex_table(), vertices)
    assert_tables_equal(graph.edge_table(), edges)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_int32_keys_decode_like_int64_keys(name, monkeypatch):
    graph = BUILDERS[name]()
    keys = [e.key for b in graph.batches for e in b.inputs + b.outputs]
    assert all(k is None or k.dtype == np.int32 for k in keys)
    monkeypatch.setattr(graph_module, "_KEY_DTYPE", np.int64)
    reference = BUILDERS[name]()
    assert all(
        e.key is None or e.key.dtype == np.int64
        for b in reference.batches
        for e in b.inputs + b.outputs
    )

    def ports(g: Graph, cs: int) -> list:
        # Params are not keyed; some hold arrays, which do not compare.
        return [(v.tile, v.inputs, v.outputs) for v in g.vertices_in(cs)]

    for cs in range(graph.n_compute_sets):
        assert ports(graph, cs) == ports(reference, cs)


def test_each_table_cached_until_add_vertices():
    graph = build_matmul_graph(GC2, 64, 64, 64)[0]
    vertices, edges = graph.vertex_table(), graph.edge_table()
    assert graph.vertex_table() is vertices
    assert graph.edge_table() is edges
    cs = graph.add_compute_set("extra")
    graph.add_vertices(
        cs, "Copy", [0, 1],
        inputs=[Edge("A", 1, key=(0, 0))],
        outputs=[Edge("C", 1, key=(0, 0))],
    )
    assert len(graph.vertex_table().tile) == len(vertices.tile) + 2
    assert len(graph.edge_table().vertex) == len(edges.vertex) + 4


class TestWhoBuildsTheEdgeTable:
    @staticmethod
    def graph() -> Graph:
        return lower_model(shl_model("Butterfly", dim=256), GC200, 50, 256)[0]

    def test_unplanned_compile_and_estimate_never_call_it(self, monkeypatch):
        graph = self.graph()

        def refuse(self):
            raise AssertionError("edge table built")

        monkeypatch.setattr(Graph, "edge_table", refuse)
        for exclude in (None, {0, 5}):
            compiled = compile_graph(
                graph, GC200, check_fit=False, exclude_tiles=exclude
            )
            assert Executor(compiled).estimate().total_s > 0

    def test_planned_compile_calls_it(self, monkeypatch):
        graph = self.graph()
        calls = []
        original = Graph.edge_table

        def spy(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Graph, "edge_table", spy)
        compile_graph(graph, GC200, check_fit=False, plan_memory=True)
        assert calls and all(g is graph for g in calls)


class TestKeyBounds:
    def test_keyed_axis_of_2_31_elements_raises(self):
        g = Graph(4)
        # Shape only: a variable allocates nothing.
        g.add_variable("big", (2**31, 2))
        cs = g.add_compute_set("copy")
        message = r"variable 'big' axis 0 has 2147483648"
        with pytest.raises(ValueError, match=message):
            g.add_vertices(cs, "Copy", [0], inputs=[Edge("big", 1, key=(5, 0))])
        with pytest.raises(ValueError, match="fewer than 2\\*\\*31"):
            g.add_vertices(
                cs, "Copy", [0], inputs=[Edge("big", 1, key=slice(None))]
            )
        assert g.n_vertices == 0

    def test_largest_keyable_axis_round_trips(self):
        g = Graph(4)
        g.add_variable("wide", (3, 2**31 - 1))
        cs = g.add_compute_set("copy")
        # Only keyed axes are bounded: "tall" has 2**31 columns, but only
        # its row axis is keyed.
        g.add_variable("tall", (2, 2**31))
        g.add_vertices(
            cs, "Copy", [0, 1],
            inputs=[
                Edge(
                    "wide", 1,
                    key=(
                        np.array([0, 2]),
                        slice(np.array([0, 2**31 - 2]), None),
                    ),
                )
            ],
            outputs=[Edge("tall", 1, key=(1,))],
        )
        first, second = g.vertices_in(cs)
        assert first.inputs[0].key == (0, slice(0, 2**31 - 1))
        assert second.inputs[0].key == (2, slice(2**31 - 2, 2**31 - 1))
        assert second.outputs[0].key == (1,)

    def test_column_slice_start_past_the_axis_raises(self):
        g = Graph(4)
        g.add_variable("x", (4, 8))
        cs = g.add_compute_set("copy")
        with pytest.raises(ValueError, match=r"bounds outside \[0, 8\]"):
            g.add_vertices(
                cs, "Copy", [0, 1],
                inputs=[
                    Edge("x", 1, key=(0, slice(np.array([0, 9]), 8)))
                ],
            )


def test_gc2_largest_matmul_compile_stays_small():
    """GC2's N = 4096 fit-search step, which sets the compile peak."""
    n = 4096
    tracemalloc.start()
    try:
        graph, _ = build_matmul_graph(GC2, n, n, n)
        assert not compile_graph(graph, GC2, check_fit=False).memory.fits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
