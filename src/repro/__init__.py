"""repro — reproduction of *Reducing Memory Requirements for the IPU using
Butterfly Factorizations* (SC 2023).

Subpackages
-----------
``repro.core``
    Butterfly/pixelfly/fastfood/circulant/low-rank factorization algebra.
``repro.nn``
    Numpy autograd deep-learning framework with structured layers.
``repro.ipu``
    Tile-level GC200 IPU simulator (graph, compiler, BSP executor,
    poplin/popsparse, PopTorch-style bridge).
``repro.gpu``
    A30 GPU cost-model simulator (cuBLAS/cuSPARSE/tensor-core models,
    PyTorch-style bridge).
``repro.linalg``
    From-scratch CSR/COO sparse formats and GEMM FLOP/byte counts.
``repro.datasets``
    Synthetic CIFAR-10/MNIST with planted butterfly structure.
``repro.experiments``
    One driver per paper table/figure, plus the chaos-testing harness
    (``python -m repro chaos``) and the smoke workload.
``repro.faults``
    Deterministic fault injection and atomic checkpoint/resume.
``repro.bench``
    FLOP accounting, table rendering and the parallel grid runner.

Quickstart
----------
>>> from repro import nn
>>> from repro.core import butterfly_param_count
>>> layer = nn.ButterflyLinear(1024, 1024)
>>> layer.param_count() - 1024  # twiddle parameters (minus bias)
20480
>>> butterfly_param_count(1024)
20480
"""

from repro import core, linalg, nn, utils

__version__ = "1.0.0"

__all__ = ["core", "linalg", "nn", "utils", "__version__"]
