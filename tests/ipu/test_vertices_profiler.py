"""Tests for codelet cost models."""

import pytest

from repro.ipu.graph import Edge, Vertex
from repro.ipu.machine import GC200
from repro.ipu.vertices import CODELETS, Codelet, register_codelet, vertex_cycles


def make_vertex(codelet, params=None, in_elems=64, out_elems=64):
    return Vertex(
        codelet=codelet,
        tile=0,
        inputs=[Edge("x", in_elems)],
        outputs=[Edge("y", out_elems)],
        params=params or {},
    )


class TestCosts:
    def test_unknown_codelet(self):
        with pytest.raises(KeyError, match="unknown"):
            vertex_cycles(make_vertex("Nope"), GC200)

    def test_amp_cheaper_than_scalar(self):
        params = {"m": 32, "n": 32, "k": 64}
        amp = vertex_cycles(make_vertex("MatMulPartialAMP", params), GC200)
        scalar = vertex_cycles(
            make_vertex("MatMulPartialScalar", params), GC200
        )
        vector = vertex_cycles(
            make_vertex("MatMulPartialVector", params), GC200
        )
        assert amp < vector < scalar

    def test_amp_penalises_short_k(self):
        deep = vertex_cycles(
            make_vertex("MatMulPartialAMP", {"m": 32, "n": 32, "k": 64}),
            GC200,
        )
        shallow = vertex_cycles(
            make_vertex("MatMulPartialAMP", {"m": 32, "n": 512, "k": 4}),
            GC200,
        )
        # Same MAC count, but k=4 underfills the AMP pipeline.
        assert shallow > deep

    def test_missing_matmul_params(self):
        with pytest.raises(KeyError, match="m/n/k"):
            vertex_cycles(make_vertex("MatMulPartialAMP"), GC200)

    def test_cost_scales_with_work(self):
        small = vertex_cycles(
            make_vertex("ButterflyStage", {"n_pairs": 100}), GC200
        )
        large = vertex_cycles(
            make_vertex("ButterflyStage", {"n_pairs": 10000}), GC200
        )
        assert large > 50 * small / 2

    def test_coo_costlier_than_csr(self):
        params = {"nnz": 500, "n_cols": 64}
        csr = vertex_cycles(make_vertex("SparseRowDotCSR", params), GC200)
        coo = vertex_cycles(make_vertex("SparseDotCOO", params), GC200)
        assert coo > csr

    def test_register_codelet_overwrites(self):
        sentinel = Codelet("MyOp", lambda v, s: 42.0)
        register_codelet(sentinel)
        try:
            assert vertex_cycles(make_vertex("MyOp"), GC200) == 42.0
        finally:
            CODELETS.pop("MyOp", None)

    def test_reduce_scales_with_inputs(self):
        few = Vertex(
            codelet="ReduceAdd",
            tile=0,
            inputs=[Edge("x", 64)] * 2,
            outputs=[Edge("y", 64)],
        )
        many = Vertex(
            codelet="ReduceAdd",
            tile=0,
            inputs=[Edge("x", 64)] * 16,
            outputs=[Edge("y", 64)],
        )
        assert vertex_cycles(many, GC200) > vertex_cycles(few, GC200)

