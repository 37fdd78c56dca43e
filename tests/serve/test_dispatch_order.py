"""Every bit the serving loop decides, pinned.

A serving run's output is decided by three choices the event loop makes
on every event: which replica takes the next batch (the earliest-free
healthy one, ties to the lower index), whether the batcher's full
trigger fires, and what the admission estimate reads.  The scenarios
below drive :class:`Server` with hand-built pools (no compiler) of 2,
27 and 64 replicas, the pool sizes a 32 MiB budget gives dense,
pixelfly and butterfly at dim 512, and pin the SHA-256 of each full
result, batch log included.  Each scenario also asserts the outcomes it
is there to reach, so a change in the workload cannot make it cover
less.
"""

import hashlib
import json

import pytest

from repro.serve.batcher import BatchPolicy
from repro.serve.replica import Replica, ReplicaPool
from repro.serve.server import ServeConfig, Server, death_schedule
from repro.serve.workload import WorkloadSpec, generate_requests

#: Per-batch service times of the dim-512 smoke pools, rounded.
DENSE_S = 1.6e-5
PIXELFLY_S = 1.165e-4
BUTTERFLY_S = 8.7e-5

#: name -> (replicas, service_s, arrival, rate_rps, deaths, slo_s,
#: outcomes the scenario must reach, SHA-256 of its result).
SCENARIOS = {
    "dense-poisson-one-death": (
        2, DENSE_S, "poisson", 4e5, 1, 5e-4,
        ("shed_queue", "retries"),
        "7861dee21133b251072044c8d73e03d458d08b14f4933f354b9e9cde0b6d443b",
    ),
    "dense-burst-all-die": (
        2, DENSE_S, "burst", 1e5, 2, 5e-4,
        ("shed_queue", "shed_dead", "failed", "retries"),
        "66c32f621feea44b4e035295745ed91eaa75bb27cc6673f9d1cf5aa13b508074",
    ),
    "pixelfly-burst-one-death": (
        27, PIXELFLY_S, "burst", 4e5, 1, 5e-4,
        ("shed_queue", "retries"),
        "734b90df099f7c90dd122dd4632464a65c89cf6080c952665cf34a22b3f80d29",
    ),
    "pixelfly-poisson-all-die": (
        27, PIXELFLY_S, "poisson", 4e5, 27, 5e-4,
        ("shed_queue", "shed_slo", "shed_dead", "failed", "retries"),
        "0ffc704308d1e70a464418545f13d9525f2e47cea7faea39f02823e80ce9c93e",
    ),
    "butterfly-poisson-overload": (
        64, BUTTERFLY_S, "poisson", 4e6, 0, 1e-4,
        ("shed_queue", "shed_slo"),
        "6fb27fb06c4088fb42eab2f92cdf1de58302838cf35ae32bce3a99268d589acb",
    ),
    "butterfly-poisson-one-death": (
        64, BUTTERFLY_S, "poisson", 4e5, 1, 5e-4,
        ("retries",),
        "aac1ba4c7dad90b41448b3a2ba2591a3377f5c76c4d0a875271f3af1637ffb99",
    ),
    "butterfly-burst-all-die": (
        64, BUTTERFLY_S, "burst", 4e6, 64, 1.5e-4,
        ("shed_queue", "shed_slo", "shed_dead", "failed", "retries"),
        "0925370c9bca333b227ec7e33482728f637ed930eda6dcb8931685aca867c178",
    ),
}

SEED = 3
N_REQUESTS = 1500


def run_scenario(n_replicas, service_s, arrival, rate_rps, n_deaths, slo_s):
    pool = ReplicaPool(
        method="hand",
        dim=512,
        batch_rows=8,
        budget_bytes=float(n_replicas),
        replica_bytes=1.0,
        service_s=service_s,
        module=None,
        replicas=[Replica(index=i) for i in range(n_replicas)],
    )
    requests = generate_requests(
        WorkloadSpec(
            seed=SEED,
            n_requests=N_REQUESTS,
            rate_rps=rate_rps,
            arrival=arrival,
            rows_min=1,
            rows_max=4,
            slo_s=slo_s,
        )
    )
    # Deaths fall inside the arrival span, so a pool that dies whole
    # still has arrivals to shed.
    config = ServeConfig(
        batch_policy=BatchPolicy(max_batch_rows=8, max_delay_s=5e-5),
        deaths=death_schedule(
            SEED, n_replicas, n_deaths, requests[-1].arrival_s
        ),
    )
    return Server(pool, config).run(requests).as_dict()


def digest(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def reached(result: dict, outcome: str) -> int:
    if outcome == "retries":
        return result["retries"]
    if outcome == "failed":
        return result["failed"]
    return result["shed"].get(outcome, 0)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_reaches_its_outcomes_with_pinned_bits(name):
    *params, outcomes, sha = SCENARIOS[name]
    result = run_scenario(*params)
    assert result["deaths"] == params[4]
    missing = [o for o in outcomes if not reached(result, o)]
    assert not missing, f"{name} never reached {missing}"
    assert digest(result) == sha

