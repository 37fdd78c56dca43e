"""The merged arrival loop keeps the all-heap loop's event order at ties.

:meth:`Server.run` reads arrivals from a stable sort of the request list
and merges them with a heap of the other events.  The reference below is
the loop it replaced: every arrival pushed onto one heap in list order,
events popped in ``(time, priority, seq)`` order, a dispatch pass and a
queue check after every event.  Random float times almost never tie, so
the pinned scenarios of ``test_dispatch_order.py`` cannot tell the two
apart at a tie.  Here every arrival, death, deadline, service time and
delay is a multiple of 1/16 s, so arrivals land exactly on completions,
deaths, flush timers and each other, and the request list is shuffled.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import BatchPolicy
from repro.serve.server import (
    _ARRIVAL,
    _COMPLETE,
    _DEATH,
    _RETRY,
    ServeConfig,
    ServeResult,
    Server,
    _Outcome,
)
from repro.serve.workload import Request
from tests.serve.test_server import make_pool

TICK_S = 1 / 16


class HeapServer(Server):
    """The all-heap event loop, kept as the reference for the merge."""

    def run(self, requests):
        self._outcomes = {r.index: _Outcome(request=r) for r in requests}
        for request in requests:
            self._push(request.arrival_s, _ARRIVAL, request)
        for replica_index, time_s in self.config.deaths:
            if 0 <= replica_index < self.pool.n_replicas:
                self._push(time_s, _DEATH, replica_index)
        # The latest arrival, which the unsorted list's last one need not be.
        last_arrival_s = max((r.arrival_s for r in requests), default=0.0)
        self._free = [
            (r.free_at_s, r.index) for r in self.pool.replicas if r.healthy
        ]
        heapq.heapify(self._free)

        horizon_s = 0.0
        while self._events:
            now_s, priority, _, payload = heapq.heappop(self._events)
            horizon_s = max(horizon_s, now_s)
            was_empty = not self.batcher.queued_requests
            if priority == _ARRIVAL:
                self._on_arrival(now_s, payload)
            elif priority == _RETRY:
                self._on_retry(now_s, payload)
            elif priority == _COMPLETE:
                self._on_complete(now_s, payload)
            elif priority == _DEATH:
                self._on_death(now_s, payload)
            flushed = self._dispatch(now_s)
            if flushed or (was_empty and self.batcher.queued_requests):
                self._schedule_flush_wakeup(now_s)

        return ServeResult(
            pool=self.pool,
            outcomes=[self._outcomes[i] for i in sorted(self._outcomes)],
            batches=self._batch_log,
            retries=self._retries,
            deaths=self._deaths,
            horizon_s=horizon_s,
            last_arrival_s=last_arrival_s,
        )


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
