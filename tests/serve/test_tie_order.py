"""The serving loop keeps a reference loop's event order at ties.

:meth:`Server.run` reads arrivals from a stable sort of the request list,
merges them with a heap of the other events, and keeps the request
queue, its trigger test, packing and completion inline.  The reference
below is a separate implementation of the same simulation: a
micro-batcher object with the two-trigger flush rule, one handler per
event kind, every arrival pushed onto one heap in list order, events
popped in ``(time, priority, seq)`` order, and a dispatch pass and a
queue check after every event.  From
:mod:`repro.serve.server` it takes only the result types, the status
names and the retry policy.

Random float times almost never tie, so the pinned scenarios of
``test_dispatch_order.py`` cannot tell two loops apart at a tie.  Here
every arrival, death, deadline, service time and delay is a multiple of
1/16 s, so arrivals land exactly on completions, deaths, flush timers
and each other, and the request list is shuffled.

The reference batcher's full trigger reads the queued row count; a
property below checks it against the head-prefix rule, which walks the
queue: a queue whose head batch cannot grow is exactly a queue holding
at least a full batch of rows.
"""

import heapq
import math
from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard.policy import TRANSIENT, classify_exception
from repro.serve.batcher import BatchPolicy
from repro.serve.server import (
    COMPLETED,
    FAILED,
    SERVE_GUARD,
    SHED_DEAD,
    SHED_QUEUE,
    SHED_SLO,
    ReplicaDeadError,
    ServeConfig,
    ServeResult,
    Server,
    _BatchLog,
    _Outcome,
    _Outcomes,
)
from repro.serve.workload import Request
from tests.serve.test_server import make_pool

TICK_S = 1 / 16

# Event priorities at equal times: completions, deaths, arrivals,
# retries, flush timers.
COMPLETE, DEATH, ARRIVAL, RETRY, FLUSH = range(5)


#: One formed micro-batch.
Batch = namedtuple("Batch", "requests rows pad_rows formed_s reason")


class MicroBatcher:
    """FIFO request queue with the two-trigger flush rule."""

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self.queue = []  # (request, enqueued_s)
        self.rows = 0

    def offer(self, request, now_s):
        if request.rows > self.policy.max_batch_rows:
            raise ValueError(
                f"request {request.index} carries {request.rows} rows; "
                f"the compiled batch holds {self.policy.max_batch_rows}"
            )
        self.queue.append((request, now_s))
        self.rows += request.rows

    def next_delay_flush_s(self):
        if not self.queue:
            return None
        return self.queue[0][1] + self.policy.max_delay_s

    def flush_reason(self, now_s):
        if not self.queue:
            return None
        if self.rows >= self.policy.max_batch_rows:
            return "full"
        if now_s >= self.queue[0][1] + self.policy.max_delay_s:
            return "delay"
        return None

    def flush(self, now_s, reason):
        """Take whole requests in FIFO order while they fit."""
        taken, rows = [], 0
        for request, _ in self.queue:
            if rows + request.rows > self.policy.max_batch_rows:
                break
            taken.append(request)
            rows += request.rows
        del self.queue[: len(taken)]
        self.rows -= rows
        pad_rows = self.policy.max_batch_rows - rows
        return Batch(tuple(taken), rows, pad_rows, now_s, reason)


class HeapServer:
    """The all-heap event loop with one handler per event kind."""

    def __init__(self, pool, config):
        self.pool = pool
        self.config = config
        self.batcher = MicroBatcher(config.batch_policy)
        self.events = []
        self.seq = 0
        self.free = []  # (free_at_s, index) of the healthy replicas
        self.in_flight = {}  # replica index -> (record, batch)
        self.batch_log = []
        self.scheduled_flushes = set()
        self.retries = 0
        self.deaths = 0

    def push(self, time_s, priority, payload):
        heapq.heappush(self.events, (time_s, priority, self.seq, payload))
        self.seq += 1

    def run(self, requests):
        self.outcomes = {r.index: _Outcome(r) for r in requests}
        for request in requests:
            self.push(request.arrival_s, ARRIVAL, request)
        for replica_index, time_s in self.config.deaths:
            if 0 <= replica_index < self.pool.n_replicas:
                self.push(time_s, DEATH, replica_index)
        self.free = [
            (r.free_at_s, r.index) for r in self.pool.replicas if r.healthy
        ]
        heapq.heapify(self.free)

        horizon_s = 0.0
        while self.events:
            now_s, priority, _, payload = heapq.heappop(self.events)
            horizon_s = max(horizon_s, now_s)
            was_empty = not self.batcher.queue
            if priority == ARRIVAL:
                self.on_arrival(now_s, payload)
            elif priority == RETRY:
                self.on_retry(now_s, payload)
            elif priority == COMPLETE:
                self.on_complete(now_s, payload)
            elif priority == DEATH:
                self.on_death(now_s, payload)
            flushed = self.dispatch(now_s)
            if flushed or (was_empty and self.batcher.queue):
                self.schedule_flush_wakeup(now_s)

        return ServeResult(
            pool=self.pool,
            outcomes=self.outcome_columns(),
            batches=self.batch_columns(),
            retries=self.retries,
            deaths=self.deaths,
            horizon_s=horizon_s,
            last_arrival_s=max((r.arrival_s for r in requests), default=0.0),
        )

    def outcome_columns(self):
        """The outcome records, copied into a result's columns."""
        ordered = [self.outcomes[i] for i in sorted(self.outcomes)]
        columns = _Outcomes([outcome.request for outcome in ordered])
        for p, outcome in enumerate(ordered):
            columns.status[p] = outcome.status
            if outcome.completed_s is not None:
                columns.completed_s[p] = outcome.completed_s
            columns.attempts[p] = outcome.attempts
            if outcome.replica is not None:
                columns.replica[p] = outcome.replica
        return columns

    def batch_columns(self):
        """The batch records, copied into a result's columns.

        The columns keep one service time and one batch size for the
        run, so each record's own must agree with them.
        """
        max_rows = self.config.batch_policy.max_batch_rows
        columns = _BatchLog(self.pool.service_s, max_rows)
        for record in self.batch_log:
            assert record["service_s"] == self.pool.service_s
            assert record["pad_rows"] == max_rows - record["rows"]
            columns.replica.append(record["replica"])
            columns.start_s.append(record["start_s"])
            columns.rows.append(record["rows"])
            columns.n_requests.append(record["n_requests"])
            columns.reason.append(record["reason"])
            columns.status.append(record["status"])
        return columns

    def estimate_completion_s(self, now_s, rows):
        max_rows = self.config.batch_policy.max_batch_rows
        batches_ahead = math.ceil((self.batcher.rows + rows) / max_rows)
        start_s = max(now_s, self.free[0][0])
        waves = math.ceil(batches_ahead / len(self.free))
        return start_s + waves * self.pool.service_s

    def on_arrival(self, now_s, request):
        outcome = self.outcomes[request.index]
        if not self.free:
            outcome.status = SHED_DEAD
        elif len(self.batcher.queue) >= self.config.queue_max_requests:
            outcome.status = SHED_QUEUE
        elif (
            self.estimate_completion_s(now_s, request.rows)
            > request.deadline_s
        ):
            outcome.status = SHED_SLO
        else:
            self.batcher.offer(request, now_s)

    def on_retry(self, now_s, request):
        if not self.free:
            self.outcomes[request.index].status = FAILED
        else:
            self.batcher.offer(request, now_s)

    def dispatch(self, now_s):
        flushed = False
        while self.free and self.free[0][0] <= now_s:
            reason = self.batcher.flush_reason(now_s)
            if reason is None:
                break
            flushed = True
            replica = self.pool.replicas[self.free[0][1]]
            batch = self.batcher.flush(now_s, reason)
            service_s = self.pool.service_s
            replica.free_at_s = now_s + service_s
            heapq.heapreplace(self.free, (replica.free_at_s, replica.index))
            replica.batches += 1
            replica.busy_s += service_s
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
            self.batch_log.append(record)
            entry = self.in_flight[replica.index] = (record, batch)
            self.push(now_s + service_s, COMPLETE, (replica.index, entry))
        return flushed

    def schedule_flush_wakeup(self, now_s):
        wake_s = self.batcher.next_delay_flush_s()
        if (
            wake_s is not None
            and wake_s > now_s
            and wake_s not in self.scheduled_flushes
        ):
            self.scheduled_flushes.add(wake_s)
            self.push(wake_s, FLUSH, None)

    def on_complete(self, now_s, payload):
        replica_index, entry = payload
        record, batch = entry
        if record["status"] == "lost":
            return
        # The replica may have taken its next batch at this instant.
        if self.in_flight.get(replica_index) is entry:
            del self.in_flight[replica_index]
        for request in batch.requests:
            outcome = self.outcomes[request.index]
            outcome.status = COMPLETED
            outcome.completed_s = now_s
            outcome.replica = replica_index

    def on_death(self, now_s, replica_index):
        replica = self.pool.replicas[replica_index]
        if not replica.healthy:
            return
        replica.healthy = False
        replica.died_at_s = now_s
        self.deaths += 1
        self.free.remove((replica.free_at_s, replica_index))
        heapq.heapify(self.free)
        entry = self.in_flight.pop(replica_index, None)
        if entry is None:
            return
        record, batch = entry
        unserved_s = batch.formed_s + self.pool.service_s - now_s
        replica.busy_s -= max(0.0, unserved_s)
        record["status"] = "lost"
        for request in batch.requests:
            outcome = self.outcomes[request.index]
            outcome.attempts += 1
            error = ReplicaDeadError(f"replica {replica_index} died")
            if (
                classify_exception(error) is TRANSIENT
                and outcome.attempts <= SERVE_GUARD.retries
            ):
                self.retries += 1
                retry_s = now_s + SERVE_GUARD.backoff_s(
                    request.index, outcome.attempts
                )
                self.push(retry_s, RETRY, request)
            else:
                outcome.status = FAILED


def served(server_cls, n_replicas, service_s, config, requests):
    pool = make_pool(n_replicas=n_replicas, service_s=service_s)
    result = server_cls(pool, config).run(requests)
    outcomes = [
        (o.request, o.status, o.completed_s, o.attempts, o.replica)
        for o in result.outcomes
    ]
    return result.as_dict(), outcomes


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_merged_loop_serves_like_the_all_heap_loop(data):
    n_replicas = data.draw(st.integers(1, 4), label="replicas")
    batch_rows = data.draw(st.integers(1, 4), label="batch_rows")
    service_s = data.draw(st.integers(2, 8), label="service") * TICK_S
    max_delay_s = data.draw(st.integers(0, 4), label="delay") * TICK_S
    ticks = st.integers(0, 40)
    drawn = data.draw(
        st.lists(
            st.tuples(ticks, st.integers(1, batch_rows), st.integers(1, 24)),
            max_size=40,
        ),
        label="arrivals",
    )
    requests = [
        Request(i, tick * TICK_S, rows, (tick + slo) * TICK_S)
        for i, (tick, rows, slo) in enumerate(drawn)
    ]
    requests = data.draw(st.permutations(requests), label="order")
    # Indices past the pool are ignored; a replica may be named twice.
    deaths = data.draw(
        st.lists(
            st.tuples(st.integers(0, n_replicas), ticks.map(TICK_S.__mul__)),
            max_size=n_replicas + 1,
        ),
        label="deaths",
    )
    config = ServeConfig(
        batch_policy=BatchPolicy(batch_rows, max_delay_s),
        queue_max_requests=data.draw(st.integers(1, 8), label="queue"),
        deaths=tuple(deaths),
    )
    args = (n_replicas, service_s, config, requests)
    assert served(Server, *args) == served(HeapServer, *args)


def reference_head(queue, max_rows, max_delay_s, now_s):
    """(reason, requests taken): the head-prefix rule, walked in full."""
    if not queue:
        return None, 0
    rows = taken = 0
    for request, _ in queue:
        if rows + request.rows > max_rows:
            break
        rows += request.rows
        taken += 1
    if rows >= max_rows or taken < len(queue):
        return "full", taken
    if now_s >= queue[0][1] + max_delay_s:
        return "delay", taken
    return None, taken


@settings(max_examples=200, deadline=None)
@given(
    max_rows=st.integers(1, 12),
    data=st.data(),
)
def test_full_trigger_is_the_head_prefix_rule(max_rows, data):
    times = st.floats(0.0, 1.0, allow_nan=False)
    entries = data.draw(
        st.lists(st.tuples(st.integers(1, max_rows), times), max_size=30)
    )
    max_delay_s = data.draw(st.floats(0.0, 0.5, allow_nan=False))
    batcher = MicroBatcher(BatchPolicy(max_rows, max_delay_s))
    queue = []

    def check(now_s):
        reason, taken = reference_head(queue, max_rows, max_delay_s, now_s)
        assert batcher.flush_reason(now_s) == reason
        return taken

    for index, (rows, enqueued_s) in enumerate(entries):
        request = Request(index, enqueued_s, rows, enqueued_s + 1.0)
        batcher.offer(request, enqueued_s)
        queue.append((request, enqueued_s))
        check(data.draw(times))
    while queue:
        taken = check(data.draw(times))
        batch = batcher.flush(0.0, "drain")
        assert batch.requests == tuple(r for r, _ in queue[:taken])
        del queue[:taken]
    assert batcher.flush_reason(0.0) is None
    assert batcher.rows == 0
