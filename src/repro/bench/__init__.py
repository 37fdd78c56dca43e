"""Benchmark support: FLOP accounting, table rendering, and the
deterministic parallel experiment runner."""

from repro.bench.parallel import WorkerError, run_grid
from repro.bench.reporting import Table, format_table
from repro.bench.flops import gflops, dense_equivalent

__all__ = [
    "WorkerError",
    "run_grid",
    "Table",
    "format_table",
    "gflops",
    "dense_equivalent",
]
