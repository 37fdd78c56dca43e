"""Tests for the IPU dataflow graph and the memory-accounting compiler."""

import numpy as np
import pytest

from repro.ipu.compiler import IPUOutOfMemoryError, compile_graph
from repro.ipu.graph import Edge, Graph, ProgramStep, Variable, Vertex
from repro.ipu.machine import GC200


def tiny_graph(n_tiles=GC200.n_tiles):
    g = Graph(n_tiles, name="tiny")
    g.add_variable("x", (8, 8))
    g.add_variable("y", (8, 8))
    cs = g.add_compute_set("relu")
    g.add_vertex(
        cs,
        Vertex(
            codelet="ElementwiseUnary",
            tile=0,
            inputs=[Edge("x", 64, key=(slice(None), slice(None)))],
            outputs=[Edge("y", 64, key=(slice(None), slice(None)))],
            params={"op": "relu"},
        ),
    )
    return g


class TestGraphConstruction:
    def test_counts(self):
        g = tiny_graph()
        assert g.n_variables == 2
        assert g.n_vertices == 1
        assert g.n_edges == 2
        assert g.n_compute_sets == 1

    def test_duplicate_variable_rejected(self):
        g = tiny_graph()
        with pytest.raises(ValueError, match="already exists"):
            g.add_variable("x", (2,))

    def test_unknown_edge_variable_rejected(self):
        g = tiny_graph()
        cs = g.add_compute_set("bad")
        with pytest.raises(ValueError, match="unknown variable"):
            g.add_vertex(
                cs, Vertex(codelet="Copy", tile=0, inputs=[Edge("nope", 1)])
            )

    def test_tile_out_of_range_rejected(self):
        g = tiny_graph()
        cs = g.add_compute_set("bad")
        with pytest.raises(ValueError, match="tile"):
            g.add_vertex(cs, Vertex(codelet="Copy", tile=10**6))

    def test_bad_compute_set_index(self):
        g = tiny_graph()
        with pytest.raises(ValueError, match="compute set"):
            g.add_vertex(99, Vertex(codelet="Copy", tile=0))

    def test_copy_size_mismatch(self):
        g = tiny_graph()
        g.add_variable("z", (3,))
        with pytest.raises(ValueError, match="mismatch"):
            g.add_copy("x", "z")

    def test_host_io_unknown_variable(self):
        g = tiny_graph()
        with pytest.raises(ValueError, match="unknown"):
            g.add_host_write("nope")

    def test_program_step_kinds(self):
        with pytest.raises(ValueError, match="kind"):
            ProgramStep("explode", None)

    def test_variable_layout_validation(self):
        g = Graph(16)
        with pytest.raises(ValueError, match="exceeds"):
            g.add_variable("v", (4,), home_tile=10, tile_span=10)

    def test_variable_bytes_on_tile(self):
        v = Variable("v", (100,), element_bytes=4, home_tile=2, tile_span=4)
        assert v.bytes_on_tile(3) == pytest.approx(100.0)
        assert v.bytes_on_tile(0) == 0.0
        assert list(v.tiles()) == [2, 3, 4, 5]

    def test_edge_negative_elements(self):
        with pytest.raises(ValueError):
            Edge("v", -1)

    def test_codelets_used(self):
        assert tiny_graph().codelets_used() == {"ElementwiseUnary"}

    def test_repr(self):
        assert "tiny" in repr(tiny_graph())


class TestAddVertices:
    """Batch emission: columns in, typed errors naming what is wrong."""

    @staticmethod
    def graph():
        g = Graph(8, name="batch")
        g.add_variable("x", (4, 8))
        g.add_variable("y", (4, 8))
        return g, g.add_compute_set("scale")

    def test_batch_matches_single_vertex_records(self):
        g, cs = self.graph()
        ids = g.add_vertices(
            cs,
            "ElementwiseUnary",
            [0, 1],
            inputs=[Edge("x", np.array([16, 16]), key=(slice(None), 0))],
            outputs=[
                Edge(
                    "y",
                    16,
                    key=(slice(np.array([0, 2]), np.array([2, 4])),),
                    local=True,
                )
            ],
            params={"op": "relu", "lane": np.array([3, 5])},
        )
        assert list(ids) == [0, 1]
        assert (g.n_vertices, g.n_edges) == (2, 4)
        v = g.vertex(1)
        assert (v.codelet, v.tile, v.params) == (
            "ElementwiseUnary", 1, {"op": "relu", "lane": 5},
        )
        assert v.inputs[0].key == (slice(0, 4), 0)
        assert v.outputs[0].key == (slice(2, 4),)
        assert v.outputs[0].local and not v.inputs[0].local
        table = g.vertex_table()
        assert table.remote_in_elements.tolist() == [16, 16]
        assert table.out_elements.tolist() == [16, 16]

    def test_unregistered_codelet(self):
        g, cs = self.graph()
        with pytest.raises(ValueError, match="'NoSuchCodelet'.*not registered"):
            g.add_vertices(cs, "NoSuchCodelet", [0])

    def test_column_length_mismatch(self):
        g, cs = self.graph()
        with pytest.raises(ValueError, match="edge to 'x': n_elements has shape"):
            g.add_vertices(
                cs, "Copy", [0, 1], inputs=[Edge("x", np.array([1, 2, 3]))]
            )
        with pytest.raises(ValueError, match=r"param 'lane'.*shape \(3,\)"):
            g.add_vertices(
                cs, "Copy", [0, 1], params={"lane": np.arange(3)}
            )

    def test_negative_n_elements(self):
        g, cs = self.graph()
        with pytest.raises(ValueError, match="'scale'.*'y'.*negative"):
            g.add_vertices(
                cs, "Copy", [0, 1], outputs=[Edge("y", np.array([4, -1]))]
            )

    def test_tile_out_of_range(self):
        g, cs = self.graph()
        with pytest.raises(ValueError, match="Copy.*'scale'.*tile 8"):
            g.add_vertices(cs, "Copy", [0, 8])

    def test_compute_set_out_of_range(self):
        g, _ = self.graph()
        with pytest.raises(ValueError, match="compute set with index 3"):
            g.add_vertices(3, "Copy", [0])

    def test_unknown_variable(self):
        g, cs = self.graph()
        with pytest.raises(ValueError, match="'scale'.*unknown variable 'z'"):
            g.add_vertices(cs, "Copy", [0], inputs=[Edge("z", 1)])

    def test_missing_cost_param(self):
        g, cs = self.graph()
        with pytest.raises(ValueError, match="ButterflyStage.*'n_pairs'"):
            g.add_vertices(cs, "ButterflyStage", [0], params={"pairs": 4})


class TestCompiler:
    def test_breakdown_sums_to_total(self):
        compiled = compile_graph(tiny_graph(), GC200)
        mem = compiled.memory
        assert mem.breakdown.total == pytest.approx(mem.total_bytes)

    def test_variable_bytes_accounted(self):
        compiled = compile_graph(tiny_graph(), GC200)
        assert compiled.memory.breakdown.variables == 2 * 64 * 4

    def test_overhead_positive(self):
        compiled = compile_graph(tiny_graph(), GC200)
        assert compiled.memory.breakdown.overhead > 0

    def test_more_vertices_more_memory(self):
        small = compile_graph(tiny_graph(), GC200).memory.total_bytes
        g = tiny_graph()
        cs = g.add_compute_set("extra")
        for tile in range(100):
            g.add_vertex(
                cs,
                Vertex(
                    codelet="ElementwiseUnary",
                    tile=tile,
                    inputs=[Edge("x", 64)],
                    outputs=[Edge("y", 64)],
                    params={"op": "relu"},
                ),
            )
        big = compile_graph(g, GC200).memory.total_bytes
        assert big > small

    def test_exchange_buffer_from_remote_edges(self):
        g = Graph(GC200.n_tiles)
        g.add_variable("a", (1000,))
        g.add_variable("b", (1000,))
        cs = g.add_compute_set("cs")
        g.add_vertex(
            cs,
            Vertex(
                codelet="Copy",
                tile=0,
                inputs=[Edge("a", 1000, local=False)],
                outputs=[Edge("b", 1000, local=True)],
            ),
        )
        compiled = compile_graph(g, GC200)
        assert compiled.memory.breakdown.exchange_buffers == 4000

    def test_local_edges_have_no_exchange_buffer(self):
        g = Graph(GC200.n_tiles)
        g.add_variable("a", (1000,))
        g.add_variable("b", (1000,))
        cs = g.add_compute_set("cs")
        g.add_vertex(
            cs,
            Vertex(
                codelet="Copy",
                tile=0,
                inputs=[Edge("a", 1000, local=True)],
                outputs=[Edge("b", 1000, local=True)],
            ),
        )
        compiled = compile_graph(g, GC200)
        assert compiled.memory.breakdown.exchange_buffers == 0

    def test_oom_raised(self):
        g = Graph(4)  # pretend-tiny device region
        g.add_variable("huge", (10**8,), tile_span=4)
        with pytest.raises(IPUOutOfMemoryError, match="exceeds"):
            compile_graph(g, GC200)

    def test_oom_suppressed_with_check_fit_false(self):
        g = Graph(4)
        g.add_variable("huge", (10**8,), tile_span=4)
        compiled = compile_graph(g, GC200, check_fit=False)
        assert not compiled.memory.fits
        assert len(compiled.memory.over_capacity_tiles()) == 4

    def test_graph_vs_spec_tile_mismatch(self):
        g = Graph(10**6)
        with pytest.raises(ValueError, match="tiles"):
            compile_graph(g, GC200)

    def test_profile_quantities(self):
        profile = compile_graph(tiny_graph(), GC200).profile()
        assert profile.n_vertices == 1
        assert profile.n_edges == 2
        assert profile.n_compute_sets == 1
        assert profile.variable_bytes == 512
        assert profile.fits

    def test_free_memory_decreases_with_allocation(self):
        empty = compile_graph(Graph(GC200.n_tiles), GC200).memory.free_bytes
        used = compile_graph(tiny_graph(), GC200).memory.free_bytes
        assert used < empty

    def test_memory_report_str(self):
        text = str(compile_graph(tiny_graph(), GC200).memory)
        assert "total" in text and "free" in text
