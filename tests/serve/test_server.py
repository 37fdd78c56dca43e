"""The serving event loop: admission, shedding, deaths, determinism.

These tests drive :class:`Server` with hand-built pools (no compiler in
the loop) so every scenario is exact: service times are round numbers
and the expected event order can be checked by hand.
"""

import random

import pytest

from repro.guard.policy import TRANSIENT, GuardPolicy, classify_exception
from repro.serve import server
from repro.serve.batcher import BatchPolicy
from repro.serve.replica import Replica, ReplicaPool
from repro.serve.server import (
    ReplicaDeadError,
    ServeConfig,
    Server,
    death_schedule,
    nearest_rank,
    simulate,
)
from repro.serve.workload import Request, WorkloadSpec, generate_requests


def make_pool(n_replicas=2, service_s=1.0, batch_rows=4):
    return ReplicaPool(
        method="dense",
        dim=8,
        batch_rows=batch_rows,
        budget_bytes=float(n_replicas),
        replica_bytes=1.0,
        service_s=service_s,
        module=None,
        replicas=[Replica(index=i) for i in range(n_replicas)],
    )


def make_config(batch_rows=4, max_delay_s=10.0, **kwargs):
    return ServeConfig(
        batch_policy=BatchPolicy(batch_rows, max_delay_s), **kwargs
    )


def request(index, arrival_s, rows=4, slo_s=100.0):
    return Request(
        index=index,
        arrival_s=arrival_s,
        rows=rows,
        deadline_s=arrival_s + slo_s,
    )


class TestHappyPath:
    def test_full_batch_dispatches_immediately(self):
        result = Server(make_pool(), make_config()).run(
            [request(0, 0.0, rows=4)]
        )
        [outcome] = result.outcomes
        assert outcome.status == "completed"
        assert outcome.completed_s == pytest.approx(1.0)
        assert outcome.latency_s == pytest.approx(1.0)
        assert result.as_dict()["on_time"] == 1

    def test_partial_batch_waits_for_delay_trigger(self):
        result = Server(
            make_pool(), make_config(max_delay_s=0.5)
        ).run([request(0, 0.0, rows=1)])
        [outcome] = result.outcomes
        # Formed at 0.5 (delay trigger), served for 1.0.
        assert outcome.completed_s == pytest.approx(1.5)

    def test_two_requests_pack_one_batch(self):
        result = Server(make_pool(), make_config()).run(
            [request(0, 0.0, rows=2), request(1, 0.0, rows=2)]
        )
        assert [o.completed_s for o in result.outcomes] == [1.0, 1.0]
        ok = [b for b in result.batches if b["status"] == "ok"]
        assert len(ok) == 1
        assert ok[0]["rows"] == 4
        assert ok[0]["pad_rows"] == 0

    def test_batches_spread_across_free_replicas(self):
        result = Server(make_pool(n_replicas=2), make_config()).run(
            [request(0, 0.0, rows=4), request(1, 0.0, rows=4)]
        )
        assert {o.replica for o in result.outcomes} == {0, 1}
        assert all(
            o.completed_s == pytest.approx(1.0) for o in result.outcomes
        )

    def test_redispatch_at_a_completion_tie_completes_both_batches(self):
        # Both replicas finish at 1.0.  Replica 0's completion runs the
        # dispatch pass first, which gives replica 1 its next batch
        # before replica 1's own completion event: that batch must
        # still complete.
        config = ServeConfig(batch_policy=BatchPolicy(1, 0.0))
        result = Server(make_pool(n_replicas=2), config).run(
            [request(i, 0.0, rows=1) for i in range(6)]
        )
        assert [o.status for o in result.outcomes] == ["completed"] * 6
        assert [o.completed_s for o in result.outcomes] == [
            1.0, 1.0, 2.0, 2.0, 3.0, 3.0
        ]
        assert [o.replica for o in result.outcomes] == [0, 1, 0, 1, 0, 1]
        assert result.as_dict()["completed"] == 6

    def test_late_completion_is_not_on_time(self):
        # The admission estimate ignores batching delay, so a 1-row
        # request with a 1.2s deadline is admitted (1.0s of service)
        # but completes at 1.5s after waiting 0.5s for the delay
        # trigger — served, yet not goodput.
        result = Server(
            make_pool(), make_config(max_delay_s=0.5)
        ).run([request(0, 0.0, rows=1, slo_s=1.2)])
        [outcome] = result.outcomes
        assert outcome.status == "completed"
        assert result.as_dict()["on_time"] == 0
        assert result.as_dict()["completed"] == 1


class TestAdmission:
    def test_queue_overflow_sheds(self):
        requests = [request(0, 0.0, rows=4)] + [
            request(i, 0.1 * i, rows=1) for i in range(1, 5)
        ]
        result = Server(
            make_pool(n_replicas=1),
            make_config(queue_max_requests=2),
        ).run(requests)
        statuses = [o.status for o in result.outcomes]
        assert statuses[0] == "completed"
        assert statuses.count("shed_queue") == 2
        assert result.as_dict()["shed"] == {"shed_queue": 2}

    def test_unreachable_deadline_sheds_at_the_door(self):
        requests = [
            request(0, 0.0, rows=4),
            request(1, 0.1, rows=4, slo_s=0.2),  # needs ~1.9s of service
        ]
        result = Server(make_pool(n_replicas=1), make_config()).run(
            requests
        )
        assert result.outcomes[1].status == "shed_slo"

    def test_generous_deadline_is_admitted(self):
        requests = [
            request(0, 0.0, rows=4),
            request(1, 0.1, rows=4, slo_s=5.0),
        ]
        result = Server(make_pool(n_replicas=1), make_config()).run(
            requests
        )
        assert result.outcomes[1].status == "completed"
        assert result.outcomes[1].completed_s == pytest.approx(2.0)


class TestResult:
    def test_a_repeated_index_raises_before_any_event(self):
        # Two outcomes under one index would collapse into one.
        pool = make_pool()
        requests = [request(0, 0.0), request(0, 0.5), request(1, 1.0)]
        with pytest.raises(ValueError, match="request index 0 is used"):
            Server(pool, make_config()).run(requests)
        assert [r.batches for r in pool.replicas] == [0, 0]

    def test_a_second_run_leaves_the_first_results_columns_alone(self):
        serving = Server(make_pool(), make_config())
        first = serving.run([request(0, 0.0, rows=4)])
        outcomes, batches = list(first.outcomes), list(first.batches)
        second = serving.run([request(0, 0.0, rows=4)])
        assert len(first.batches) == len(second.batches) == 1
        assert list(first.outcomes) == outcomes
        assert list(first.batches) == batches


class TestDeaths:
    def test_classification_is_transient(self):
        assert classify_exception(ReplicaDeadError("boom")) is TRANSIENT

    def test_death_mid_batch_retries_on_survivor(self):
        config = make_config(deaths=((0, 0.5),))
        result = Server(make_pool(n_replicas=2), config).run(
            [request(0, 0.0, rows=4)]
        )
        [outcome] = result.outcomes
        assert outcome.status == "completed"
        assert outcome.attempts == 1
        assert outcome.replica == 1  # rerouted around the dead replica
        assert result.retries == 1
        assert result.deaths == 1
        statuses = sorted(b["status"] for b in result.batches)
        assert statuses == ["lost", "ok"]

    def test_retry_backoff_is_the_guard_curve(self):
        config = make_config(deaths=((0, 0.5),))
        result = Server(make_pool(n_replicas=2), config).run(
            [request(0, 0.0, rows=4)]
        )
        [outcome] = result.outcomes
        backoff = server.SERVE_GUARD.backoff_s(0, 1)
        # Lost at 0.5, re-queued at 0.5 + backoff (full batch, so it
        # dispatches immediately), served for 1.0 on the survivor.
        assert outcome.completed_s == pytest.approx(1.5 + backoff)

    def test_retries_exhausted_fails(self, monkeypatch):
        monkeypatch.setattr(
            server,
            "SERVE_GUARD",
            GuardPolicy(retries=0, backoff_base_s=1e-4, backoff_max_s=1e-3),
        )
        config = make_config(deaths=((0, 0.5),))
        result = Server(make_pool(n_replicas=2), config).run(
            [request(0, 0.0, rows=4)]
        )
        assert result.outcomes[0].status == "failed"
        assert result.retries == 0

    def test_dead_pool_sheds_new_arrivals(self):
        config = make_config(deaths=((0, 0.5),))
        result = Server(make_pool(n_replicas=1), config).run(
            [request(0, 1.0, rows=4)]
        )
        assert result.outcomes[0].status == "shed_dead"

    def test_dead_pool_fails_retries(self):
        config = make_config(deaths=((0, 0.5),))
        result = Server(make_pool(n_replicas=1), config).run(
            [request(0, 0.0, rows=4)]
        )
        assert result.outcomes[0].status == "failed"

    def test_idle_death_loses_no_work(self):
        config = make_config(deaths=((1, 0.1),))
        result = Server(make_pool(n_replicas=2), config).run(
            [request(0, 1.0, rows=4)]
        )
        assert result.outcomes[0].status == "completed"
        assert result.deaths == 1
        assert all(b["status"] == "ok" for b in result.batches)

    def test_busy_s_excludes_the_unserved_tail(self):
        config = make_config(deaths=((0, 0.25),))
        result = Server(make_pool(n_replicas=2), config).run(
            [request(0, 0.0, rows=4)]
        )
        dead = result.pool.replicas[0]
        assert dead.busy_s == pytest.approx(0.25)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        workload = WorkloadSpec(
            seed=7, n_requests=60, rate_rps=4.0, slo_s=2.0
        )
        config = make_config(max_delay_s=0.2, deaths=((0, 5.0),))
        a = simulate(make_pool(), workload, config).as_dict()
        b = simulate(make_pool(), workload, config).as_dict()
        assert a == b

    def test_shuffled_requests_serve_like_sorted_ones(self):
        requests = generate_requests(
            WorkloadSpec(seed=3, n_requests=300, rate_rps=4e5, slo_s=5e-4)
        )
        # Distinct times: the list's order cannot decide a tie.
        assert len({r.arrival_s for r in requests}) == len(requests)
        shuffled = list(requests)
        random.Random(3).shuffle(shuffled)
        config = make_config(
            batch_rows=8, max_delay_s=5e-5, deaths=((1, 3e-4),)
        )

        def serve(order):
            pool = make_pool(n_replicas=4, service_s=1e-4, batch_rows=8)
            return Server(pool, config).run(order).as_dict()

        assert serve(shuffled) == serve(requests)

    def test_death_schedule_pure_and_bounded(self):
        a = death_schedule(3, 8, 2, 10.0)
        assert a == death_schedule(3, 8, 2, 10.0)
        assert len(a) == 2
        victims = [v for v, _ in a]
        assert len(set(victims)) == 2
        assert all(0 <= v < 8 for v in victims)
        assert all(0.0 <= t <= 10.0 for _, t in a)

    def test_death_schedule_caps_at_pool_size(self):
        assert len(death_schedule(0, 2, 5, 1.0)) == 2
        assert death_schedule(0, 4, 0, 1.0) == ()


class TestPercentiles:
    def test_nearest_rank_exact(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 50.0) == 2.0
        assert nearest_rank(values, 95.0) == 4.0
        assert nearest_rank(values, 1.0) == 1.0
        assert nearest_rank([], 99.0) == 0.0

    def test_summary_percentiles_come_from_latencies(self):
        result = Server(make_pool(n_replicas=2), make_config()).run(
            [request(0, 0.0, rows=4), request(1, 0.0, rows=4)]
        )
        summary = result.as_dict()
        assert summary["latency_s"]["p50"] == pytest.approx(1.0)
        assert summary["latency_s"]["p99"] == pytest.approx(1.0)
        assert summary["goodput_rps"] == pytest.approx(2.0 / 1.0)
