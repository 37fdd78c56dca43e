"""Seeded open-loop request workloads for the serving simulator.

An inference workload is a stream of requests arriving *open loop*: the
arrival process does not react to server backpressure, which is what
makes offered load an independent variable (and overload an observable
outcome rather than an artefact of the generator slowing down).

Determinism contract: every random draw for request *i* comes from
``numpy.random.SeedSequence([seed, i, 0])`` — its own child stream,
never a shared cursor.  Request *i* is therefore identical whether the
workload generates 10 requests or 10 000, and identical across serial
and parallel runs of the same grid.  The streams of a workload are
seeded together, in one vectorised pass
(:func:`repro.utils.rng.indexed_rngs`), and each is still exactly that
SeedSequence's generator: ``tests/serve/test_workload.py`` compares
whole request lists with the per-request loop, and a property in
``tests/bench/test_bench_utils.py`` compares the seed words with
numpy's.  The simulator times requests by
their row count alone, so a :class:`Request` carries no payload: it
stays a few plain numbers and pickles cheaply across worker processes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.utils.rng import indexed_rngs

__all__ = [
    "ARRIVALS",
    "Request",
    "WorkloadSpec",
    "generate_requests",
]

#: Supported arrival processes.
ARRIVALS = ("poisson", "burst")

# Child-stream index of a request's gap and row-count draws.
_ARRIVAL_STREAM = 0

#: The ``burst`` process runs at ``BURST_FACTOR`` x the base rate for the
#: first ``BURST_DUTY`` of every ``BURST_PERIOD_S`` of simulated time.
BURST_FACTOR = 4.0
BURST_PERIOD_S = 0.25
BURST_DUTY = 0.25


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

    ``rate_rps`` is the base offered load in requests/second.  The
    ``burst`` process alternates between a quiet phase and a burst phase
    (:data:`BURST_FACTOR` × the base rate) with period
    :data:`BURST_PERIOD_S` and duty cycle :data:`BURST_DUTY`; the
    *current* phase is decided by the arrival time accumulated so far, so
    the process stays a pure function of the seed.
    """

    seed: int = 0
    n_requests: int = 200
    rate_rps: float = 200.0
    arrival: str = "poisson"
    rows_min: int = 1
    rows_max: int = 4
    slo_s: float = 0.05

    def __post_init__(self) -> None:
        # SeedSequence takes only ints >= 0; checked here, not deep in a run.
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
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


def _local_rate(spec: WorkloadSpec, now_s: float) -> float:
    """The instantaneous arrival rate at simulated time *now_s*."""
    if spec.arrival != "burst":
        return spec.rate_rps
    phase = math.fmod(now_s, BURST_PERIOD_S)
    in_burst = phase < BURST_DUTY * BURST_PERIOD_S
    return spec.rate_rps * BURST_FACTOR if in_burst else spec.rate_rps


def generate_requests(spec: WorkloadSpec) -> list[Request]:
    """Materialise the request stream described by *spec*.

    Arrival gaps are exponential in the local rate (a Poisson process,
    rate-modulated for ``burst``); request *i*'s gap and row count come
    from ``SeedSequence([seed, i, 0])`` only, so a prefix of a longer
    workload is bit-identical to a shorter one.
    """
    requests: list[Request] = []
    now_s = 0.0
    rngs = indexed_rngs(spec.seed, spec.n_requests, _ARRIVAL_STREAM)
    for index, rng in enumerate(rngs):
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

