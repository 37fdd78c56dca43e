"""The serving event loop: simulated clock, SLOs, admission, faults.

A :class:`Server` joins a :class:`~repro.serve.replica.ReplicaPool`, a
:class:`~repro.serve.batcher.BatchPolicy` and a request stream into one
discrete-event simulation, and keeps the request queue itself.  There
is **no wall clock anywhere in the loop** — events run in ``(time_s,
priority, seq)`` order, service times come from the executor's cost
model, and every random draw (arrivals, deaths, retry backoff) is
seeded.  Two runs of the same configuration are therefore
bit-identical, on any machine, at any ``--jobs`` — the property the
manifest-determinism tests and the CI ``serve-smoke`` gate assert.

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
import itertools
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.guard.policy import (
    TRANSIENT,
    GuardPolicy,
    TransientError,
    classify_exception,
)
from repro.serve.batcher import FLUSH_DELAY, FLUSH_FULL, BatchPolicy
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


@dataclass(slots=True)
class _Outcome:
    """One request's outcome, the item :attr:`ServeResult.outcomes` yields."""

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


class _Outcomes(Sequence):
    """Every request's outcome in columns, in request-index order.

    Item *i* is an :class:`_Outcome` built from row *i* when it is read;
    ``len()`` builds none.  A completion time of NaN and a replica of -1
    mean none.
    """

    __slots__ = ("requests", "status", "completed_s", "attempts", "replica")

    def __init__(self, requests: list[Request]) -> None:
        n = len(requests)
        self.requests = requests
        self.status = [""] * n
        self.completed_s = array("d", [math.nan]) * n
        self.attempts = array("i", [0]) * n
        self.replica = array("i", [-1]) * n

    def __len__(self) -> int:
        return len(self.requests)

    def __getitem__(self, i: int) -> _Outcome:
        completed_s, replica = self.completed_s[i], self.replica[i]
        return _Outcome(
            self.requests[i],
            self.status[i],
            None if math.isnan(completed_s) else completed_s,
            self.attempts[i],
            None if replica < 0 else replica,
        )


class _BatchLog(Sequence):
    """A run's batch log in columns, in dispatch order.

    Item *i* is batch *i*'s record, built when it is read: a dict of its
    ``replica``, ``start_s``, ``service_s``, ``rows``, ``pad_rows``,
    ``n_requests``, ``reason`` and ``status`` (``"ok"``, or ``"lost"``
    when its replica died with it in flight).  Every batch of a run
    takes the pool's service time and pads to the policy's batch, so
    those two are kept once.
    """

    __slots__ = (
        "service_s", "max_rows",
        "replica", "start_s", "rows", "n_requests", "reason", "status",
    )

    def __init__(self, service_s: float, max_rows: int) -> None:
        self.service_s = service_s
        self.max_rows = max_rows
        self.replica = array("i")
        self.start_s = array("d")
        self.rows = array("i")
        self.n_requests = array("i")
        self.reason: list[str] = []
        self.status: list[str] = []

    def __len__(self) -> int:
        return len(self.status)

    def __getitem__(self, i: int) -> dict:
        rows = self.rows[i]
        return {
            "replica": self.replica[i],
            "start_s": self.start_s[i],
            "service_s": self.service_s,
            "rows": rows,
            "pad_rows": self.max_rows - rows,
            "n_requests": self.n_requests[i],
            "reason": self.reason[i],
            "status": self.status[i],
        }


@dataclass
class ServeResult:
    """Everything one simulated serving run produced, JSON-ready.

    ``outcomes`` and ``batches`` are read-only sequences over the columns
    the run filled, one row per request and one per batch; their items
    are built only when read.
    """

    pool: ReplicaPool
    outcomes: _Outcomes
    batches: _BatchLog
    retries: int
    deaths: int
    horizon_s: float
    last_arrival_s: float

    def as_dict(self) -> dict:
        """Plain-dict form: picklable across workers, manifest-ready.

        The batch log is expanded here into one dict per batch.
        """
        outcomes, log = self.outcomes, self.batches
        status = outcomes.status
        latencies = []
        on_time = 0
        for state, completed_s, request in zip(
            status, outcomes.completed_s, outcomes.requests
        ):
            if state == COMPLETED:
                latencies.append(completed_s - request.arrival_s)
                on_time += completed_s <= request.deadline_s
        latencies.sort()
        shed = {s: status.count(s) for s in SHED_STATUSES}
        shed = {k: v for k, v in shed.items() if v}
        n = len(status)
        ok_rows = [
            rows for rows, state in zip(log.rows, log.status) if state == "ok"
        ]
        real_rows = sum(ok_rows)
        slot_rows = len(ok_rows) * log.max_rows
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
            "completed": len(latencies),
            "on_time": int(on_time),
            "failed": status.count(FAILED),
            "shed": shed,
            "shed_rate": (n - len(latencies)) / n if n else 0.0,
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
            "batches": list(log),
        }


@dataclass
class Server:
    """Discrete-event serving simulation over one replica pool.

    What a run records is its own; only the pool's replica state (free
    times, health, batch counts, busy time) carries over to a later run.
    """

    pool: ReplicaPool
    config: ServeConfig

    def run(self, requests: list[Request]) -> ServeResult:
        """Drive the event loop to completion and summarise.

        Request indices must be distinct: the result keeps one outcome
        per index, so a repeated index raises :class:`ValueError`.

        Arrivals come from a stable sort of *requests* by time, merged
        with the heap: the next arrival goes first when ``(arrival_s,
        _ARRIVAL)`` sorts before the heap top.  No heap event has the
        arrival priority and equal times keep list order, so this is the
        ``(time, priority, seq)`` order of arrivals pushed in list order.

        The loop owns the request queue: a FIFO of ``(request,
        enqueued_s)``, its row count, and the time the head's delay
        trigger fires.  After each event it tests the trigger, then
        whether the earliest-free replica is free by now, and only then
        runs a dispatch pass.  Outcomes and the batch log go straight
        into the result's columns.
        """
        pool, policy = self.pool, self.config.batch_policy
        max_rows, max_delay_s = policy.max_batch_rows, policy.max_delay_s
        queue_max = self.config.queue_max_requests
        service_s = pool.service_s
        replicas = pool.replicas
        outcomes = _Outcomes(sorted(requests, key=attrgetter("index")))
        # Request index -> its row in the outcome columns.
        position = {r.index: p for p, r in enumerate(outcomes.requests)}
        if len(position) < len(requests):
            repeated = next(
                a.index
                for a, b in itertools.pairwise(outcomes.requests)
                if a.index == b.index
            )
            raise ValueError(
                f"request index {repeated} is used more than once; "
                "each request needs its own index"
            )
        status, completed_s = outcomes.status, outcomes.completed_s
        served_by, attempts = outcomes.replica, outcomes.attempts
        log = _BatchLog(service_s, max_rows)
        log_status = log.status
        arrivals = sorted(requests, key=attrgetter("arrival_s"))
        # Every event but arrivals, as ``(time_s, priority, seq, payload)``.
        events: list = []
        seq = itertools.count()
        for replica_index, time_s in self.config.deaths:
            if 0 <= replica_index < pool.n_replicas:
                heapq.heappush(
                    events, (time_s, _DEATH, next(seq), replica_index)
                )
        # ``(free_at_s, index)`` of every healthy replica, in step with
        # ``Replica.free_at_s``: the top is the replica dispatch takes
        # next (the earliest free, ties to the lower index).
        free = [(r.free_at_s, r.index) for r in replicas if r.healthy]
        heapq.heapify(free)
        # replica index -> ``(index, batch number, batch)`` of its batch
        # in flight; a batch is the ``(request, enqueued_s)`` entries it
        # took from the queue, its number its row in the batch log.
        in_flight: dict[int, tuple] = {}
        retries = deaths = 0

        queue: list[tuple[Request, float]] = []
        queued_rows = 0
        flush_at_s = 0.0  # the head's delay trigger; stale while empty
        # The head's enqueue time never falls, so neither do the wake
        # times: a wake already scheduled can only be the latest one.
        woken_s = -math.inf
        pending = iter(arrivals)
        request = next(pending, None)
        horizon_s = 0.0
        while request is not None or events:
            offered = None
            if request is not None and (
                not events or (request.arrival_s, _ARRIVAL) < events[0]
            ):
                now_s = request.arrival_s
                if not free:
                    status[position[request.index]] = SHED_DEAD
                elif len(queue) >= queue_max:
                    status[position[request.index]] = SHED_QUEUE
                else:
                    # Crude but deterministic finish-time estimate: the
                    # batches ahead, in waves over the healthy replicas,
                    # from when the earliest-free one is free.
                    start_s = free[0][0] if free[0][0] > now_s else now_s
                    waves = math.ceil(
                        math.ceil((queued_rows + request.rows) / max_rows)
                        / len(free)
                    )
                    if start_s + waves * service_s > request.deadline_s:
                        status[position[request.index]] = SHED_SLO
                    else:
                        offered = request
                request = next(pending, None)
            else:
                now_s, priority, _, payload = heapq.heappop(events)
                if priority == _COMPLETE:
                    index, batch_no, batch = payload
                    # A batch lost to a death completes nothing; the slot
                    # may already hold the replica's next batch.
                    if log_status[batch_no] == "ok":
                        if in_flight.get(index) is payload:
                            del in_flight[index]
                        for done, _ in batch:
                            p = position[done.index]
                            status[p] = COMPLETED
                            completed_s[p] = now_s
                            served_by[p] = index
                elif priority == _DEATH:
                    replica = replicas[payload]
                    entry = None
                    if replica.healthy:
                        replica.healthy = False
                        replica.died_at_s = now_s
                        deaths += 1
                        free.remove((replica.free_at_s, payload))
                        heapq.heapify(free)
                        entry = in_flight.pop(payload, None)
                    if entry is not None:
                        # The batch is lost: give back the unserved tail
                        # of its service time, retry or fail its requests.
                        _, batch_no, batch = entry
                        replica.busy_s -= max(
                            0.0, log.start_s[batch_no] + service_s - now_s
                        )
                        log_status[batch_no] = "lost"
                        guard = SERVE_GUARD
                        for lost, _ in batch:
                            p = position[lost.index]
                            attempts[p] += 1
                            error = ReplicaDeadError(
                                f"replica {payload} died at {now_s:.6f}s "
                                f"with request {lost.index} in flight"
                            )
                            if (
                                classify_exception(error) is TRANSIENT
                                and attempts[p] <= guard.retries
                            ):
                                retries += 1
                                retry_s = now_s + guard.backoff_s(
                                    lost.index, attempts[p]
                                )
                                heapq.heappush(
                                    events, (retry_s, _RETRY, next(seq), lost)
                                )
                            else:
                                status[p] = FAILED
                elif priority == _RETRY:
                    # Retried requests were already admitted once; they
                    # bypass the queue bound and the SLO estimate (a late
                    # answer still beats none) but not a dead pool.
                    if free:
                        offered = payload
                    else:
                        status[position[payload.index]] = FAILED
                # A flush timer only wakes the dispatch pass below.
            if now_s > horizon_s:
                horizon_s = now_s
            head_moved = False
            if offered is not None:
                if offered.rows > max_rows:
                    raise ValueError(
                        f"request {offered.index} carries {offered.rows} "
                        f"rows; the compiled batch holds {max_rows}"
                    )
                if not queue:
                    flush_at_s = now_s + max_delay_s
                    head_moved = True
                queue.append((offered, now_s))
                queued_rows += offered.rows
            # The trigger first, then a free replica: only then a batch.
            while (
                queue
                and (queued_rows >= max_rows or now_s >= flush_at_s)
                and free
                and free[0][0] <= now_s
            ):
                reason = FLUSH_FULL if queued_rows >= max_rows else FLUSH_DELAY
                # Whole requests in FIFO order while they fit.
                rows = taken = 0
                for queued, _ in queue:
                    if rows + queued.rows > max_rows:
                        break
                    rows += queued.rows
                    taken += 1
                batch = queue[:taken]
                del queue[:taken]
                queued_rows -= rows
                if queue:
                    flush_at_s = queue[0][1] + max_delay_s
                head_moved = True
                replica = replicas[free[0][1]]
                index = replica.index
                replica.free_at_s = now_s + service_s
                heapq.heapreplace(free, (replica.free_at_s, index))
                replica.batches += 1
                replica.busy_s += service_s
                entry = in_flight[index] = (index, len(log_status), batch)
                log.replica.append(index)
                log.start_s.append(now_s)
                log.rows.append(rows)
                log.n_requests.append(taken)
                log.reason.append(reason)
                log_status.append("ok")
                heapq.heappush(
                    events, (now_s + service_s, _COMPLETE, next(seq), entry)
                )
            # The delay deadline moves only with the queue's head: after
            # an offer to an empty queue or a batch.  While the head
            # stays, its wakeup is scheduled already, or already past.
            if (
                head_moved
                and queue
                and flush_at_s > now_s
                and flush_at_s > woken_s
            ):
                woken_s = flush_at_s
                heapq.heappush(events, (flush_at_s, _FLUSH, next(seq), None))

        return ServeResult(
            pool=pool,
            outcomes=outcomes,
            batches=log,
            retries=retries,
            deaths=deaths,
            horizon_s=horizon_s,
            last_arrival_s=arrivals[-1].arrival_s if arrivals else 0.0,
        )


def simulate(
    pool: ReplicaPool,
    workload: WorkloadSpec,
    config: ServeConfig,
) -> ServeResult:
    """Generate the workload, run the server, return the result."""
    return Server(pool=pool, config=config).run(generate_requests(workload))
