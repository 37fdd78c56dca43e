"""The serving event loop: simulated clock, SLOs, admission, faults.

A :class:`Server` joins a :class:`~repro.serve.replica.ReplicaPool`, a
:class:`~repro.serve.batcher.MicroBatcher` and a request stream into one
discrete-event simulation.  There is **no wall clock anywhere in the
loop** — time is a heap of ``(time_s, priority, seq)``-ordered events,
service times come from the executor's cost model, and every random
draw (arrivals, deaths, retry backoff) is seeded.  Two runs of
the same configuration are therefore bit-identical, on any machine, at
any ``--jobs`` — the property the manifest-determinism tests and the CI
``serve-smoke`` gate assert.

Behaviours modelled:

* **Admission control** — a request is shed at arrival when the bounded
  queue is full (``shed_queue``) or when a service-time estimate says
  its SLO deadline is already unreachable (``shed_slo``): shedding at
  the door costs nothing, missing the deadline after doing the work
  costs a batch slot.
* **Load shedding under overload** — open-loop arrivals keep coming, so
  overload shows up as a rising shed rate instead of generator slowdown.
* **Degraded replicas** — a seeded death schedule kills replicas
  mid-run.  The in-flight batch is lost; each of its requests raises a
  :class:`ReplicaDeadError` (a :class:`~repro.guard.policy.TransientError`),
  is classified by :func:`~repro.guard.policy.classify_exception`, and
  re-queued after :meth:`GuardPolicy.backoff_s` — the same seeded
  retry/backoff machinery the supervised grid runner uses.  Dead
  replicas drain and are routed around; the pool shrinks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.guard.policy import (
    TRANSIENT,
    GuardPolicy,
    TransientError,
    classify_exception,
)
from repro.serve.batcher import Batch, BatchPolicy, MicroBatcher
from repro.serve.replica import ReplicaPool
from repro.serve.workload import Request, WorkloadSpec, generate_requests

__all__ = [
    "ReplicaDeadError",
    "ServeConfig",
    "ServeResult",
    "Server",
    "death_schedule",
    "nearest_rank",
    "simulate",
]

# Event kinds, by processing priority at equal timestamps: completions
# free replicas before deaths can kill them, deaths reroute before new
# work is admitted, flush timers run last so they see the final queue.
_COMPLETE = 0
_DEATH = 1
_ARRIVAL = 2
_RETRY = 3
_FLUSH = 4

# Terminal request statuses.
COMPLETED = "completed"
SHED_QUEUE = "shed_queue"
SHED_SLO = "shed_slo"
SHED_DEAD = "shed_dead"
FAILED = "failed"

SHED_STATUSES = (SHED_QUEUE, SHED_SLO, SHED_DEAD)


class ReplicaDeadError(TransientError):
    """A replica died with this request's batch in flight."""


#: The grid runner's default backoff (50 ms base) suits process restarts;
#: re-queuing a request inside a microsecond-scale serving loop needs the
#: same seeded exponential curve at a thousandth the scale.
SERVE_GUARD = GuardPolicy(
    retries=2, backoff_base_s=1e-4, backoff_max_s=1e-3, jitter=0.25, seed=0
)


@dataclass(frozen=True)
class ServeConfig:
    """Server-side policy knobs (the workload is specified separately)."""

    batch_policy: BatchPolicy
    queue_max_requests: int = 32
    guard: GuardPolicy = SERVE_GUARD
    #: ``(replica_index, time_s)`` pairs; see :func:`death_schedule`.
    deaths: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.queue_max_requests < 1:
            raise ValueError(
                "queue_max_requests must be >= 1, "
                f"got {self.queue_max_requests}"
            )


def death_schedule(
    seed: int, n_replicas: int, n_deaths: int, horizon_s: float
) -> tuple[tuple[int, float], ...]:
    """A seeded replica-death schedule: which replicas die, and when.

    Pure in ``SeedSequence([seed, 0xdead])``; victims are distinct
    replica indices, death times are uniform over ``(0, horizon_s)``.
    """
    if n_deaths < 0:
        raise ValueError(f"n_deaths must be >= 0, got {n_deaths}")
    n_deaths = min(n_deaths, n_replicas)
    if n_deaths == 0:
        return ()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEAD]))
    victims = rng.choice(n_replicas, size=n_deaths, replace=False)
    times = rng.uniform(0.0, horizon_s, size=n_deaths)
    return tuple(
        (int(v), float(t)) for v, t in sorted(zip(victims, times))
    )


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile — exact, platform-independent."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class _Outcome:
    request: Request
    status: str = ""
    completed_s: float | None = None
    attempts: int = 0
    replica: int | None = None

    @property
    def latency_s(self) -> float | None:
        if self.completed_s is None:
            return None
        return self.completed_s - self.request.arrival_s

    @property
    def on_time(self) -> bool:
        return (
            self.completed_s is not None
            and self.completed_s <= self.request.deadline_s
        )


@dataclass
class ServeResult:
    """Everything one simulated serving run produced, JSON-ready."""

    pool: ReplicaPool
    outcomes: list[_Outcome]
    batches: list[dict]
    retries: int
    deaths: int
    horizon_s: float
    last_arrival_s: float

    def as_dict(self) -> dict:
        """Plain-dict form: picklable across workers, manifest-ready."""
        completed = [o for o in self.outcomes if o.status == COMPLETED]
        latencies = sorted(o.latency_s for o in completed)
        on_time = sum(1 for o in completed if o.on_time)
        shed = {
            status: sum(1 for o in self.outcomes if o.status == status)
            for status in SHED_STATUSES
        }
        shed = {k: v for k, v in shed.items() if v}
        n = len(self.outcomes)
        ok_batches = [b for b in self.batches if b["status"] == "ok"]
        real_rows = sum(b["rows"] for b in ok_batches)
        slot_rows = sum(b["rows"] + b["pad_rows"] for b in ok_batches)
        pool = self.pool
        return {
            "method": pool.method,
            "dim": int(pool.dim),
            "batch_rows": int(pool.batch_rows),
            "budget_bytes": float(pool.budget_bytes),
            "replica_bytes": float(pool.replica_bytes),
            "n_replicas": int(pool.n_replicas),
            "service_s": float(pool.service_s),
            "requests": int(n),
            "completed": len(completed),
            "on_time": int(on_time),
            "failed": sum(1 for o in self.outcomes if o.status == FAILED),
            "shed": shed,
            "shed_rate": (n - len(completed)) / n if n else 0.0,
            "retries": int(self.retries),
            "deaths": int(self.deaths),
            "latency_s": {
                "p50": nearest_rank(latencies, 50.0),
                "p95": nearest_rank(latencies, 95.0),
                "p99": nearest_rank(latencies, 99.0),
                "max": latencies[-1] if latencies else 0.0,
            },
            "goodput_rps": (
                on_time / self.horizon_s if self.horizon_s > 0 else 0.0
            ),
            "offered_rps": (
                n / self.last_arrival_s if self.last_arrival_s > 0 else 0.0
            ),
            "occupancy": real_rows / slot_rows if slot_rows else 0.0,
            "horizon_s": float(self.horizon_s),
            "replicas": [
                {
                    "index": r.index,
                    "batches": int(r.batches),
                    "busy_s": float(r.busy_s),
                    "utilisation": float(r.utilisation(self.horizon_s)),
                    "died_at_s": (
                        None if r.died_at_s is None else float(r.died_at_s)
                    ),
                }
                for r in pool.replicas
            ],
            "batches": list(self.batches),
        }


@dataclass
class Server:
    """Discrete-event serving simulation over one replica pool."""

    pool: ReplicaPool
    config: ServeConfig
    _events: list = field(default_factory=list, repr=False)
    _seq: int = 0

    def __post_init__(self) -> None:
        self.batcher = MicroBatcher(self.config.batch_policy)
        self._outcomes: dict[int, _Outcome] = {}
        self._in_flight: dict[int, tuple[int, Batch, float]] = {}
        self._batch_log: list[dict] = []
        self._batch_records: dict[int, dict] = {}
        self._scheduled_flushes: set[float] = set()
        self._next_batch_id = 0
        self._retries = 0
        self._deaths = 0
        self._horizon_s = 0.0

    # -- event plumbing --------------------------------------------------------

    def _push(self, time_s: float, priority: int, kind: str, payload) -> None:
        heapq.heappush(
            self._events, (time_s, priority, self._seq, kind, payload)
        )
        self._seq += 1

    # -- the run ---------------------------------------------------------------

    def run(self, requests: list[Request]) -> ServeResult:
        """Drive the event loop to completion and summarise."""
        for request in requests:
            self._outcomes[request.index] = _Outcome(request=request)
            self._push(request.arrival_s, _ARRIVAL, "arrival", request)
        for replica_index, time_s in self.config.deaths:
            if 0 <= replica_index < self.pool.n_replicas:
                self._push(time_s, _DEATH, "death", replica_index)
        last_arrival_s = requests[-1].arrival_s if requests else 0.0

        while self._events:
            now_s, _, _, kind, payload = heapq.heappop(self._events)
            self._horizon_s = max(self._horizon_s, now_s)
            if kind == "arrival":
                self._on_arrival(now_s, payload)
            elif kind == "retry":
                self._on_retry(now_s, payload)
            elif kind == "complete":
                self._on_complete(now_s, payload)
            elif kind == "death":
                self._on_death(now_s, payload)
            # "flush" events carry no handler: they exist to wake the
            # dispatch pass below at the delay-trigger time.
            self._dispatch(now_s)
            self._schedule_flush_wakeup(now_s)

        return ServeResult(
            pool=self.pool,
            outcomes=[
                self._outcomes[i] for i in sorted(self._outcomes)
            ],
            batches=self._batch_log,
            retries=self._retries,
            deaths=self._deaths,
            horizon_s=self._horizon_s,
            last_arrival_s=last_arrival_s,
        )

    # -- admission -------------------------------------------------------------

    def _estimate_completion_s(self, now_s: float, rows: int) -> float:
        """Crude but deterministic finish-time estimate for admission."""
        healthy = self.pool.healthy_replicas()
        batches_ahead = math.ceil(
            (self.batcher.queued_rows + rows)
            / self.config.batch_policy.max_batch_rows
        )
        start_s = max(now_s, min(r.free_at_s for r in healthy))
        per_wave = max(1, len(healthy))
        waves = math.ceil(batches_ahead / per_wave)
        return start_s + waves * self.pool.service_s

    def _on_arrival(self, now_s: float, request: Request) -> None:
        outcome = self._outcomes[request.index]
        if not self.pool.healthy_replicas():
            outcome.status = SHED_DEAD
            return
        if self.batcher.queued_requests >= self.config.queue_max_requests:
            outcome.status = SHED_QUEUE
            return
        if self._estimate_completion_s(now_s, request.rows) > request.deadline_s:
            outcome.status = SHED_SLO
            return
        self.batcher.offer(request, now_s)

    def _on_retry(self, now_s: float, request: Request) -> None:
        # Retried requests were already admitted once; they bypass the
        # SLO estimate (a late answer still beats none) but not a dead
        # pool.
        if not self.pool.healthy_replicas():
            self._outcomes[request.index].status = FAILED
            return
        self.batcher.offer(request, now_s)

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, now_s: float) -> None:
        while True:
            reason = self.batcher.flush_reason(now_s)
            if reason is None:
                return
            free = [
                r
                for r in self.pool.healthy_replicas()
                if r.free_at_s <= now_s
            ]
            if not free:
                return
            replica = min(free, key=lambda r: (r.free_at_s, r.index))
            batch = self.batcher.flush(now_s, reason)
            service_s = self.pool.service_s
            replica.free_at_s = now_s + service_s
            replica.batches += 1
            replica.busy_s += service_s
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self._in_flight[replica.index] = (batch_id, batch, now_s)
            record = {
                "replica": replica.index,
                "start_s": now_s,
                "service_s": service_s,
                "rows": batch.rows,
                "pad_rows": batch.pad_rows,
                "n_requests": len(batch.requests),
                "reason": batch.reason,
                "status": "ok",
            }
            self._batch_log.append(record)
            self._batch_records[batch_id] = record
            self._push(
                now_s + service_s,
                _COMPLETE,
                "complete",
                (replica.index, batch_id),
            )

    def _schedule_flush_wakeup(self, now_s: float) -> None:
        wake_s = self.batcher.next_delay_flush_s()
        if (
            wake_s is not None
            and wake_s > now_s
            and wake_s not in self._scheduled_flushes
        ):
            self._scheduled_flushes.add(wake_s)
            self._push(wake_s, _FLUSH, "flush", None)

    # -- completion / failure --------------------------------------------------

    def _on_complete(self, now_s: float, payload: tuple[int, int]) -> None:
        replica_index, batch_id = payload
        entry = self._in_flight.get(replica_index)
        if entry is None or entry[0] != batch_id:
            return  # the batch was lost to a death before completing
        _, batch, _ = self._in_flight.pop(replica_index)
        for request in batch.requests:
            outcome = self._outcomes[request.index]
            outcome.status = COMPLETED
            outcome.completed_s = now_s
            outcome.replica = replica_index

    def _on_death(self, now_s: float, replica_index: int) -> None:
        replica = self.pool.replicas[replica_index]
        if not replica.healthy:
            return
        replica.healthy = False
        replica.died_at_s = now_s
        self._deaths += 1
        entry = self._in_flight.pop(replica_index, None)
        if entry is None:
            return
        batch_id, batch, start_s = entry
        # Give back the unserved tail of the lost batch's service time.
        replica.busy_s -= max(0.0, start_s + self.pool.service_s - now_s)
        self._batch_records[batch_id]["status"] = "lost"
        guard = self.config.guard
        for request in batch.requests:
            outcome = self._outcomes[request.index]
            outcome.attempts += 1
            error = ReplicaDeadError(
                f"replica {replica_index} died at "
                f"{now_s:.6f}s with request {request.index} in flight"
            )
            if (
                classify_exception(error) is TRANSIENT
                and outcome.attempts <= guard.retries
            ):
                self._retries += 1
                retry_s = now_s + guard.backoff_s(
                    request.index, outcome.attempts
                )
                self._push(retry_s, _RETRY, "retry", request)
            else:
                outcome.status = FAILED


def simulate(
    pool: ReplicaPool,
    workload: WorkloadSpec,
    config: ServeConfig,
) -> ServeResult:
    """Generate the workload, run the server, return the result."""
    return Server(pool=pool, config=config).run(generate_requests(workload))
