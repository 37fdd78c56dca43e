"""Replica pools: IPU memory budget → replica count.

This is where the paper's memory result becomes a serving result.  One
replica's SRAM footprint is read off the compiled graph's
:class:`~repro.ipu.compiler.MemoryReport` (the same accounting the
memory-planning and regression subsystems gate on), and the pool size is
*derived*: ``floor(budget_bytes / replica_bytes)``, capped by
``max_replicas``.  A butterfly factorization that shrinks the footprint
~40× therefore fields ~40× the replicas of the dense baseline inside the
same budget — which the server turns into goodput.

All replicas of a pool serve the same model, so the pool compiles
*once* (through the ambient :mod:`repro.cache` compilation cache — a
second pool build of the same method anywhere in the process is a cache
hit) and shares the compiled artefact.  Per-batch service time is the
executor's deterministic cost-model estimate, so the whole serving
simulation stays bit-reproducible across machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import nn
from repro.ipu.executor import Executor
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule

__all__ = [
    "SERVE_METHODS",
    "Replica",
    "ReplicaPool",
    "build_model",
    "build_pool",
]

#: The model families the serving benchmark compares.
SERVE_METHODS = ("dense", "butterfly", "pixelfly")

#: Pixelfly parameters, matching the fig6 experiment configuration.
PIXELFLY_PARAMS = dict(block_size=32, butterfly_size=4, rank=1)


def build_model(
    method: str, dim: int, depth: int = 3, seed: int = 0
) -> nn.Module:
    """A *depth*-layer ReLU MLP in the given parameterisation."""
    if method == "dense":
        make = lambda i: nn.Linear(dim, dim, bias=False, seed=seed + i)
    elif method == "butterfly":
        make = lambda i: nn.ButterflyLinear(
            dim, dim, bias=False, seed=seed + i
        )
    elif method == "pixelfly":
        make = lambda i: nn.PixelflyLinear(
            dim, bias=False, seed=seed + i, **PIXELFLY_PARAMS
        )
    else:
        raise ValueError(
            f"unknown serve method {method!r}; "
            f"expected one of {SERVE_METHODS}"
        )
    layers: list[nn.Module] = []
    for i in range(depth):
        layers.append(make(i))
        if i < depth - 1:
            layers.append(nn.ReLU())
    return nn.Sequential(*layers)


@dataclass
class Replica:
    """Mutable serving state of one replica (simulated time)."""

    index: int
    free_at_s: float = 0.0
    healthy: bool = True
    died_at_s: float | None = None
    batches: int = 0
    busy_s: float = 0.0

    def utilisation(self, horizon_s: float) -> float:
        """Busy fraction of the run (up to death, for dead replicas)."""
        alive_s = horizon_s if self.died_at_s is None else self.died_at_s
        return self.busy_s / alive_s if alive_s > 0 else 0.0


@dataclass
class ReplicaPool:
    """``n_replicas`` copies of one compiled model under one budget."""

    method: str
    dim: int
    batch_rows: int
    budget_bytes: float
    replica_bytes: float
    service_s: float
    module: IPUModule = field(repr=False)
    replicas: list[Replica] = field(default_factory=list)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)


def build_pool(
    method: str,
    dim: int,
    batch_rows: int,
    budget_bytes: float,
    depth: int = 3,
    max_replicas: int = 64,
    seed: int = 0,
) -> ReplicaPool:
    """Compile *method* once for GC200 and size the pool from the memory
    budget.

    Raises :class:`ValueError` when not even one replica fits — an
    undersized budget is a configuration error, not a zero-throughput
    data point.
    """
    if not 0 < budget_bytes < math.inf:  # rejects NaN too
        raise ValueError(f"budget_bytes must be > 0, got {budget_bytes}")
    if max_replicas < 1:
        raise ValueError(f"max_replicas must be >= 1, got {max_replicas}")
    model = build_model(method, dim, depth=depth, seed=seed)
    module = IPUModule(model, in_features=dim, batch=batch_rows, spec=GC200)
    compiled = module.compile(check_fit=False)
    replica_bytes = float(compiled.memory.total_bytes)
    n = min(max_replicas, math.floor(budget_bytes / replica_bytes))
    if n < 1:
        raise ValueError(
            f"budget {budget_bytes:.0f} B holds no {method} replica "
            f"({replica_bytes:.0f} B each)"
        )
    service_s = float(Executor(compiled).estimate().total_s)
    return ReplicaPool(
        method=method,
        dim=dim,
        batch_rows=batch_rows,
        budget_bytes=float(budget_bytes),
        replica_bytes=replica_bytes,
        service_s=service_s,
        module=module,
        replicas=[Replica(index=i) for i in range(n)],
    )
