"""Deterministic inference serving on the IPU simulator.

The serving subsystem closes the loop the paper opens: butterfly /
pixelfly factorizations shrink a model's SRAM footprint, so a fixed IPU
memory budget holds more replicas, so the same offered load is served
with higher goodput and lower tail latency.  Everything runs on a
simulated clock with seeded randomness — same seed, same manifest,
byte for byte, at any ``--jobs``.

Layers (each its own module):

* :mod:`repro.serve.workload` — seeded open-loop request generation
* :mod:`repro.serve.batcher` — dynamic micro-batching with padding
* :mod:`repro.serve.replica` — memory-budget-derived replica pools
* :mod:`repro.serve.server` — the SLO-aware discrete-event scheduler
* :mod:`repro.serve.report` — ``repro.serve/1`` manifest + obs wiring

Entry points: ``python -m repro serve [--smoke]`` and
``benchmarks/test_serve_throughput.py``; docs in docs/SERVING.md.
"""

from repro.serve.batcher import Batch, BatchPolicy, MicroBatcher
from repro.serve.replica import (
    SERVE_METHODS,
    Replica,
    ReplicaPool,
    build_model,
    build_pool,
)
from repro.serve.report import (
    SERVE_SCHEMA,
    ServeScenario,
    record_metrics,
    record_spans,
    serve_section,
    serve_worker,
)
from repro.serve.server import (
    ReplicaDeadError,
    ServeConfig,
    ServeResult,
    Server,
    death_schedule,
    simulate,
)
from repro.serve.workload import Request, WorkloadSpec, generate_requests

__all__ = [
    "SERVE_METHODS",
    "SERVE_SCHEMA",
    "Batch",
    "BatchPolicy",
    "MicroBatcher",
    "Replica",
    "ReplicaDeadError",
    "ReplicaPool",
    "Request",
    "ServeConfig",
    "ServeResult",
    "ServeScenario",
    "Server",
    "WorkloadSpec",
    "build_model",
    "build_pool",
    "death_schedule",
    "generate_requests",
    "record_metrics",
    "record_spans",
    "serve_section",
    "serve_worker",
    "simulate",
]
