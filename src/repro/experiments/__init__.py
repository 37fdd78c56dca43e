"""Experiment drivers: one module per paper table/figure.

Each module exposes ``run(...)`` returning structured rows and ``render()``
producing the text artefact; the ``benchmarks/`` suite wraps these with
pytest-benchmark, and ``examples/`` scripts call them directly.

| Module    | Paper artefact                                        |
|-----------|-------------------------------------------------------|
| table1    | Table 1 — GC200 vs A30 spec sheet                     |
| fig3      | Fig 3 — exchange latency/bandwidth vs tile distance   |
| table2    | Table 2 — dense/sparse matmul GFLOP/s matrix          |
| fig4      | Fig 4 — skewed matmul, GPU vs IPU                     |
| fig5      | Fig 5 — IPU graph/memory growth with problem size     |
| fig6      | Fig 6 — linear vs butterfly vs pixelfly layer times   |
| fig7      | Fig 7 — compute sets & memory for the factorizations  |
| table4    | Table 4 — SHL on CIFAR-10: params/accuracy/time       |
| table5    | Table 5 — pixelfly hyper-parameter sweep              |

Workloads beyond the paper's artefacts live here too: ``ablation``
(cost-model ablations), ``generations`` (GC2 vs GC200), ``chaos`` (the
fault-injection suite behind ``python -m repro chaos``) and ``smoke``
(the deterministic workload behind ``python -m repro report --smoke``).
None of them is imported by this package root.
"""

from repro.experiments.config import Table3Hyperparameters, TABLE3, shl_model, METHODS

__all__ = ["Table3Hyperparameters", "TABLE3", "shl_model", "METHODS"]
