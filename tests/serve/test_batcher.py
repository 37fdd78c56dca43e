"""Micro-batching policy: packing, triggers, padding accounting.

The server keeps the request queue and applies the two-trigger rule
inline, so these tests drive :meth:`Server.run` with hand-built pools
and read each formed batch from the batch log: when it started, why,
and how many requests and rows it took.
"""

import pytest

from repro.serve.batcher import BatchPolicy
from repro.serve.server import ServeConfig, Server
from repro.serve.workload import Request
from tests.serve.test_server import make_pool


def _request(index, rows, arrival_s=0.0, slo_s=100.0):
    return Request(
        index=index,
        arrival_s=arrival_s,
        rows=rows,
        deadline_s=arrival_s + slo_s,
    )


def _serve(requests, max_rows=8, max_delay_s=0.01, n_replicas=1):
    pool = make_pool(n_replicas=n_replicas, batch_rows=max_rows)
    config = ServeConfig(batch_policy=BatchPolicy(max_rows, max_delay_s))
    return Server(pool, config).run(requests)


def _formed(result):
    """``(start_s, reason, n_requests, rows, pad_rows)`` of each batch."""
    return [
        (b["start_s"], b["reason"], b["n_requests"], b["rows"], b["pad_rows"])
        for b in result.batches
    ]


class TestTriggers:
    def test_empty_queue_never_flushes(self):
        # Every request is shed, so the queue stays empty at every event.
        result = _serve([_request(0, 2, slo_s=0.5)], max_delay_s=0.0)
        assert result.outcomes[0].status == "shed_slo"
        assert len(result.batches) == 0

    def test_exact_fill_triggers_full(self):
        result = _serve([_request(0, 4), _request(1, 4, arrival_s=0.001)])
        assert _formed(result) == [(0.001, "full", 2, 8, 0)]

    def test_lone_partial_batch_waits(self):
        result = _serve([_request(0, 4)])
        assert _formed(result) == [(0.01, "delay", 1, 4, 4)]

    def test_maximal_partial_batch_triggers_full(self):
        """7 of 8 rows with a 4-row request next: waiting buys nothing."""
        requests = [_request(0, 4), _request(1, 3), _request(2, 4)]
        result = _serve(requests, n_replicas=2)
        # The third request cannot extend the head batch, so the head
        # goes at once; the third waits for the delay trigger, though a
        # replica is free.
        assert _formed(result) == [
            (0.0, "full", 2, 7, 1),
            (0.01, "delay", 1, 4, 4),
        ]

    def test_delay_trigger_uses_oldest_enqueue_time(self):
        requests = [
            _request(0, 2, arrival_s=1.0),
            _request(1, 2, arrival_s=1.005),
        ]
        result = _serve(requests, max_delay_s=0.01)
        assert _formed(result) == [(1.0 + 0.01, "delay", 2, 4, 4)]

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="request 0 carries 5 rows"):
            _serve([_request(0, 5)], max_rows=4)


class TestFlush:
    def test_flush_packs_whole_requests_fifo(self):
        result = _serve([_request(i, 3) for i in range(3)])
        # The request that did not fit stays queued; its delay trigger
        # fires at 0.01, and it goes when the replica frees at 1.0.
        assert _formed(result) == [
            (0.0, "full", 2, 6, 2),
            (1.0, "delay", 1, 3, 5),
        ]
        assert [o.replica for o in result.outcomes] == [0, 0, 0]
        assert [o.completed_s for o in result.outcomes] == [1.0, 1.0, 2.0]
        assert result.as_dict()["occupancy"] == pytest.approx(9 / 16)

    def test_flush_empties_exact_fit(self):
        result = _serve(
            [_request(0, 2), _request(1, 4, arrival_s=0.5)],
            max_rows=6,
            max_delay_s=1.0,
        )
        assert _formed(result) == [(0.5, "full", 2, 6, 0)]

    def test_row_accounting_across_flushes(self):
        result = _serve([_request(i, 2) for i in range(6)], max_rows=4)
        assert [b["rows"] for b in result.batches] == [4, 4, 4]
        assert all(o.status == "completed" for o in result.outcomes)


class TestPolicyValidation:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="max_batch_rows"):
            BatchPolicy(0, 0.01)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="max_delay_s"):
            BatchPolicy(8, -1.0)
