"""Tests for codelet cost models."""

import numpy as np
import pytest

from repro.ipu.graph import Edge, Vertex, VertexBatch
from repro.ipu.machine import GC200
from repro.ipu.vertices import CODELETS, Codelet, batch_cycles, register_codelet


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
        batch = VertexBatch(0, "Nope", 0, np.zeros(1, np.int64), [], [], {})
        with pytest.raises(KeyError, match="unknown"):
            batch_cycles(batch, GC200)

    def test_amp_cheaper_than_scalar(self):
        params = {"m": 32, "n": 32, "k": 64}
        amp, vector, scalar = (
            CODELETS[name].cycles(make_vertex(name, params), GC200)
            for name in (
                "MatMulPartialAMP", "MatMulPartialVector", "MatMulPartialScalar"
            )
        )
        assert amp < vector < scalar

    def test_amp_penalises_short_k(self):
        amp = CODELETS["MatMulPartialAMP"]
        deep = amp.cycles(
            make_vertex("MatMulPartialAMP", {"m": 32, "n": 32, "k": 64}),
            GC200,
        )
        shallow = amp.cycles(
            make_vertex("MatMulPartialAMP", {"m": 32, "n": 512, "k": 4}),
            GC200,
        )
        # Same MAC count, but k=4 underfills the AMP pipeline.
        assert shallow > deep

    def test_missing_matmul_params(self):
        with pytest.raises(KeyError, match="m/n/k"):
            CODELETS["MatMulPartialAMP"].cycles(
                make_vertex("MatMulPartialAMP"), GC200
            )

    def test_cost_scales_with_work(self):
        stage = CODELETS["ButterflyStage"]
        small = stage.cycles(
            make_vertex("ButterflyStage", {"n_pairs": 100}), GC200
        )
        large = stage.cycles(
            make_vertex("ButterflyStage", {"n_pairs": 10000}), GC200
        )
        assert large > 50 * small / 2

    def test_coo_costlier_than_csr(self):
        params = {"nnz": 500, "n_cols": 64}
        csr, coo = (
            CODELETS[name].cycles(make_vertex(name, params), GC200)
            for name in ("SparseRowDotCSR", "SparseDotCOO")
        )
        assert coo > csr

    def test_register_codelet_overwrites(self):
        sentinel = Codelet("MyOp", lambda v, s: 42.0)
        register_codelet(sentinel)
        try:
            batch = VertexBatch(0, "MyOp", 0, np.zeros(2, np.int64), [], [], {})
            assert batch_cycles(batch, GC200).tolist() == [42.0, 42.0]
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
        reduce = CODELETS["ReduceAdd"]
        assert reduce.cycles(many, GC200) > reduce.cycles(few, GC200)

