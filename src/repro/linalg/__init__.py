"""Dense and sparse linear-algebra substrate.

This package provides what the paper's Section 3 benchmarks exercise:
from-scratch CSR and COO sparse formats and the FLOP/byte count of a dense
GEMM.  The device simulators (:mod:`repro.ipu`, :mod:`repro.gpu`) consume
these for both numerics and cost accounting.  The blocked matmul of
Table 2 is an IPU graph (:func:`repro.ipu.poplin.build_blocked_matmul_graph`)
and Fig 4's skewed shapes come from :func:`repro.experiments.fig4.skew_shape`.
"""

from repro.linalg.sparse import CSRMatrix, COOMatrix, random_sparse, sparsity
from repro.linalg.dense import matmul_flops, matmul_bytes

__all__ = [
    "CSRMatrix",
    "COOMatrix",
    "random_sparse",
    "sparsity",
    "matmul_flops",
    "matmul_bytes",
]
