"""Seeded open-loop request workloads for the serving simulator.

An inference workload is a stream of requests arriving *open loop*: the
arrival process does not react to server backpressure, which is what
makes offered load an independent variable (and overload an observable
outcome rather than an artefact of the generator slowing down).

Determinism contract: every random draw for request *i* comes from
``numpy.random.SeedSequence([seed, i, stream])`` — its own child stream,
never a shared cursor.  Request *i* is therefore identical whether the
workload generates 10 requests or 10 000, and identical across serial
and parallel runs of the same grid.  Payload bytes are regenerated on
demand from the same coordinates instead of being stored, so a
:class:`Request` stays a few plain numbers and pickles cheaply across
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ARRIVALS",
    "Request",
    "WorkloadSpec",
    "generate_requests",
    "request_payload",
]

#: Supported arrival processes.
ARRIVALS = ("poisson", "burst")

# Per-request child-stream indices.  Keeping the gap/rows draws and the
# payload draws on separate streams means reading a payload never
# perturbs arrival times.
_ARRIVAL_STREAM = 0
_PAYLOAD_STREAM = 1


@dataclass(frozen=True)
class Request:
    """One inference request: arrival coordinates plus an SLO deadline.

    ``rows`` is the number of input rows (a request may carry more than
    one sample); the batcher packs whole requests into the compiled
    batch and pads the remainder.  ``deadline_s`` is absolute simulated
    time — a completion after it still returns a result but does not
    count toward goodput.
    """

    index: int
    arrival_s: float
    rows: int
    deadline_s: float


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of an open-loop request stream.

    ``rate_rps`` is the long-run offered load in requests/second.  The
    ``burst`` process alternates between a quiet phase and a burst phase
    (``burst_factor`` × the base rate) with period ``burst_period_s``
    and duty cycle ``burst_duty``; the *current* phase is decided by the
    arrival time accumulated so far, so the process stays a pure
    function of the seed.
    """

    seed: int = 0
    n_requests: int = 200
    rate_rps: float = 200.0
    arrival: str = "poisson"
    burst_factor: float = 4.0
    burst_period_s: float = 0.25
    burst_duty: float = 0.25
    rows_min: int = 1
    rows_max: int = 4
    slo_s: float = 0.05

    def __post_init__(self) -> None:
        # Chained bounds reject NaN (every comparison is False) and inf.
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"expected one of {ARRIVALS}"
            )
        if self.n_requests < 0:
            raise ValueError(
                f"n_requests must be >= 0, got {self.n_requests}"
            )
        if not 0 < self.rate_rps < math.inf:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if not 1 <= self.rows_min <= self.rows_max:
            raise ValueError(
                f"need 1 <= rows_min <= rows_max, got "
                f"[{self.rows_min}, {self.rows_max}]"
            )
        if not 0 < self.slo_s < math.inf:
            raise ValueError(f"slo_s must be > 0, got {self.slo_s}")
        if not 1 <= self.burst_factor < math.inf:
            raise ValueError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if not 0 < self.burst_duty < 1:
            raise ValueError(
                f"burst_duty must be in (0, 1), got {self.burst_duty}"
            )
        if not 0 < self.burst_period_s < math.inf:
            raise ValueError(
                f"burst_period_s must be > 0, got {self.burst_period_s}"
            )


def _request_rng(
    spec: WorkloadSpec, index: int, stream: int
) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([spec.seed, index, stream])
    )


def _local_rate(spec: WorkloadSpec, now_s: float) -> float:
    """The instantaneous arrival rate at simulated time *now_s*."""
    if spec.arrival != "burst":
        return spec.rate_rps
    phase = math.fmod(now_s, spec.burst_period_s)
    in_burst = phase < spec.burst_duty * spec.burst_period_s
    return spec.rate_rps * spec.burst_factor if in_burst else spec.rate_rps


def generate_requests(spec: WorkloadSpec) -> list[Request]:
    """Materialise the request stream described by *spec*.

    Arrival gaps are exponential in the local rate (a Poisson process,
    rate-modulated for ``burst``); request *i*'s gap and row count come
    from ``SeedSequence([seed, i, 0])`` only, so a prefix of a longer
    workload is bit-identical to a shorter one.
    """
    requests: list[Request] = []
    now_s = 0.0
    for index in range(spec.n_requests):
        rng = _request_rng(spec, index, _ARRIVAL_STREAM)
        gap_s = rng.exponential(1.0 / _local_rate(spec, now_s))
        now_s += gap_s
        rows = int(rng.integers(spec.rows_min, spec.rows_max + 1))
        requests.append(
            Request(
                index=index,
                arrival_s=now_s,
                rows=rows,
                deadline_s=now_s + spec.slo_s,
            )
        )
    return requests


def request_payload(
    spec: WorkloadSpec, request: Request, in_features: int
) -> np.ndarray:
    """The input rows of *request*, regenerated from its coordinates.

    Pure in ``SeedSequence([seed, index, 1])``: the same request always
    carries the same bytes, on any worker, in any run.
    """
    rng = _request_rng(spec, request.index, _PAYLOAD_STREAM)
    return rng.standard_normal((request.rows, in_features))
