"""A serving result keeps its outcomes and batch log in columns.

perf's serve workload keeps every result of a repetition alive until it
checks them, so a result's size shows in serve's peak memory; and
``perf/layers.py`` reads ``len()`` of ``outcomes`` and ``batches``
inside its traced ``serve.run`` span, so a length that built the items
would show in the traced run time and memory.
"""

import tracemalloc

import pytest

from repro.serve import SERVE_METHODS, ServeScenario, report, serve_worker
from repro.serve import server
from repro.serve.batcher import BatchPolicy
from repro.serve.server import ServeConfig, Server
from repro.serve.workload import generate_requests
from tests.serve.test_server import make_pool, request


@pytest.mark.parametrize("method", SERVE_METHODS)
def test_a_retained_result_stays_small(method, monkeypatch):
    """What a 2,500-request run leaves alive is its result, about
    0.1 MiB of columns; one object per request and one dict per batch
    would take 0.5 MiB."""
    retained = []

    def traced_simulate(pool, workload, config):
        requests = generate_requests(workload)
        serving = Server(pool=pool, config=config)
        tracemalloc.start()
        try:
            result = serving.run(requests)
            retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(report, "simulate", traced_simulate)
    serve_worker(ServeScenario(method=method, n_requests=2500).as_config())
    [size] = retained
    assert size < 0.25 * 2**20


def test_lengths_build_no_records(monkeypatch):
    built = []
    outcome, batch_record = server._Outcome, server._BatchLog.__getitem__

    def counted_outcome(*args):
        built.append("outcome")
        return outcome(*args)

    def counted_batch_record(log, i):
        built.append("batch")
        return batch_record(log, i)

    monkeypatch.setattr(server, "_Outcome", counted_outcome)
    monkeypatch.setattr(server._BatchLog, "__getitem__", counted_batch_record)
    config = ServeConfig(batch_policy=BatchPolicy(1, 0.0))
    result = Server(make_pool(), config).run(
        [request(i, 0.0, rows=1) for i in range(6)]
    )
    assert (len(result.outcomes), len(result.batches)) == (6, 6)
    assert built == []
    # The wrappers see every record that is built.
    assert result.outcomes[-1].completed_s == 3.0
    assert result.batches[-1]["start_s"] == 2.0
    assert built == ["outcome", "batch"]
