"""Multi-IPU scaling and streaming memory — the paper's future work.

The conclusion of the paper: *"we plan to further investigate … scaling to
multiple IPUs and the use of streaming memory in combination with sparse
methods for scalable learning problems."*  This module models both on top
of the single-IPU simulator:

* **Data-parallel training** across the M2000's four GC200s: each replica
  trains ``batch / n_ipus`` samples, then gradients ring-allreduce over the
  IPU-Link fabric (Table 1: 320 GB/s inter-chip).  Compressed models
  (butterfly: ~30 k parameters) allreduce in microseconds where the dense
  baseline (1 M+ parameters) pays real communication time — the memory
  reduction becomes a *communication* reduction at scale, which is exactly
  why the authors care.
* **Weight streaming** from off-chip DDR (Table 1: 64 GB at 20 GB/s): when
  a model's weights do not fit In-Processor-Memory, they stream in per
  step (and gradients stream back).  This makes oversized dense models
  *runnable but slow*, quantifying the paper's motivation: butterfly-sized
  models stay resident while dense ones hit the 20 GB/s wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ipu.machine import GC200, IPUSpec
from repro.ipu.poptorch import IPUModule
from repro.nn.module import Module

__all__ = [
    "IPULinkSpec",
    "M2000",
    "allreduce_time",
    "DataParallelReport",
    "data_parallel_step",
    "StreamingReport",
    "streaming_step",
]


@dataclass(frozen=True)
class IPULinkSpec:
    """An IPU-Machine: several IPUs joined by IPU-Link."""

    name: str
    n_ipus: int
    #: Inter-chip bandwidth per direction, bytes/s (Table 1: 320 GB/s).
    link_bandwidth: float
    #: Per-message link latency, seconds (sync + serialisation).
    link_latency_s: float = 2e-6
    #: Time to detect a dropped link and re-route a collective over the
    #: surviving direction (timeout + topology re-negotiation).
    link_retry_timeout_s: float = 20e-6
    ipu: IPUSpec = GC200


#: The paper's M2000 IPU-Machine: 4 x GC200.
M2000 = IPULinkSpec(
    name="M2000", n_ipus=4, link_bandwidth=320e9, ipu=GC200
)


def allreduce_time(
    machine: IPULinkSpec,
    nbytes: int,
    n_ipus: int | None = None,
    failed_links: int = 0,
) -> float:
    """Ring all-reduce time for *nbytes* of gradients.

    Standard ring cost: ``2 (p - 1) / p`` traversals of the payload over
    the slowest link, plus ``2 (p - 1)`` latency hops.

    ``failed_links=1`` models the recovery path after one IPU-Link
    direction drops: the collective times out
    (``link_retry_timeout_s``), then retries over the surviving
    direction — the broken ring becomes a chain whose end-segments carry
    the traffic of both directions, halving the effective bandwidth of
    the slowest link while the latency hop count is unchanged.  A second
    failed link partitions the ring, so the all-reduce is impossible.
    """
    p = machine.n_ipus if n_ipus is None else n_ipus
    if not 1 <= p <= machine.n_ipus:
        raise ValueError(
            f"n_ipus must be in [1, {machine.n_ipus}], got {p}"
        )
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if failed_links < 0:
        raise ValueError(f"failed_links must be >= 0, got {failed_links}")
    if p == 1:
        # A single replica has no ring to partition: any failed-link
        # count is vacuously survivable and the collective is free.
        return 0.0
    if failed_links > 1:
        # Checked before the zero-byte fast path: a partitioned ring is
        # a topology error, not a free all-reduce of nothing.
        raise ValueError(
            f"{failed_links} failed links partition the {p}-IPU ring; "
            "all-reduce is impossible"
        )
    if nbytes == 0:
        return 0.0
    steps = 2 * (p - 1)
    payload = 2 * (p - 1) / p * nbytes
    bandwidth = machine.link_bandwidth
    detect_s = 0.0
    if failed_links == 1:
        bandwidth /= 2.0
        detect_s = machine.link_retry_timeout_s
    return (
        detect_s + steps * machine.link_latency_s + payload / bandwidth
    )


@dataclass(frozen=True)
class DataParallelReport:
    """Cost breakdown of one data-parallel training step."""

    n_ipus: int
    global_batch: int
    compute_s: float
    allreduce_s: float
    single_ipu_s: float

    @property
    def step_s(self) -> float:
        return self.compute_s + self.allreduce_s

    @property
    def speedup(self) -> float:
        """Throughput speedup over one IPU at the same global batch."""
        return self.single_ipu_s / self.step_s if self.step_s > 0 else 0.0

    @property
    def scaling_efficiency(self) -> float:
        """Speedup / n_ipus (1.0 = perfect scaling)."""
        return self.speedup / self.n_ipus

    @property
    def communication_fraction(self) -> float:
        """Share of the step spent in the all-reduce."""
        return self.allreduce_s / self.step_s if self.step_s > 0 else 0.0


def data_parallel_step(
    model: Module,
    in_features: int,
    global_batch: int,
    n_ipus: int | None = None,
) -> DataParallelReport:
    """Model one synchronous data-parallel training step on an
    :data:`M2000`.

    Each replica runs ``global_batch / n_ipus`` samples through the
    single-IPU step model, then gradients (one FP32 value per parameter)
    ring-allreduce across the machine.
    """
    machine = M2000
    p = machine.n_ipus if n_ipus is None else n_ipus
    if not 1 <= p <= machine.n_ipus:
        raise ValueError(
            f"n_ipus must be in [1, {machine.n_ipus}], got {p}"
        )
    if global_batch < p:
        raise ValueError(
            f"global batch {global_batch} smaller than replica count {p}"
        )
    local_batch = math.ceil(global_batch / p)
    replica = IPUModule(
        model, in_features=in_features, batch=local_batch, spec=machine.ipu
    )
    compute_s = replica.training_step_time()
    reduce_s = allreduce_time(machine, replica.param_bytes, n_ipus=p)
    single = IPUModule(
        model, in_features=in_features, batch=global_batch, spec=machine.ipu
    ).training_step_time()
    return DataParallelReport(
        n_ipus=p,
        global_batch=global_batch,
        compute_s=compute_s,
        allreduce_s=reduce_s,
        single_ipu_s=single,
    )


@dataclass(frozen=True)
class StreamingReport:
    """Cost of running a model with weights streamed from off-chip DDR."""

    param_bytes: int
    resident: bool
    stream_s: float
    compute_s: float

    @property
    def step_s(self) -> float:
        return self.compute_s + self.stream_s

    @property
    def streaming_overhead(self) -> float:
        """Slowdown factor vs the weights-resident step."""
        return self.step_s / self.compute_s if self.compute_s > 0 else 0.0


def streaming_step(
    model: Module,
    in_features: int,
    batch: int,
    weight_budget_bytes: int | None = None,
) -> StreamingReport:
    """Model one GC200 training step with optional weight streaming.

    If the model's parameters fit in *weight_budget_bytes* (default: a
    quarter of In-Processor-Memory, leaving room for activations and code),
    they stay resident and the step equals the normal step.  Otherwise
    weights stream in before the forward pass and gradients stream back
    after the backward pass — ``2 x param_bytes`` over the DDR link per
    step, the paper's streaming-memory trade.
    """
    spec = GC200
    module = IPUModule(model, in_features=in_features, batch=batch, spec=spec)
    budget = (
        spec.total_memory_bytes // 4
        if weight_budget_bytes is None
        else weight_budget_bytes
    )
    compute_s = module.training_step_time()
    resident = module.param_bytes <= budget
    stream_s = 0.0
    if not resident:
        stream_s = 2.0 * module.param_bytes / spec.effective_host_bandwidth
    return StreamingReport(
        param_bytes=module.param_bytes,
        resident=resident,
        stream_s=stream_s,
        compute_s=compute_s,
    )
