"""The workload generator's determinism and distribution contracts."""

import numpy as np
import pytest

from repro.serve import workload
from repro.serve.batcher import BatchPolicy
from repro.serve.replica import build_pool
from repro.serve.workload import (
    ARRIVALS,
    Request,
    WorkloadSpec,
    generate_requests,
)


def per_request_loop(spec: WorkloadSpec) -> list[Request]:
    """Reference: one SeedSequence and generator built per request."""
    requests = []
    now_s = 0.0
    for index in range(spec.n_requests):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index, 0]))
        now_s += rng.exponential(1.0 / workload._local_rate(spec, now_s))
        rows = int(rng.integers(spec.rows_min, spec.rows_max + 1))
        requests.append(Request(index, now_s, rows, now_s + spec.slo_s))
    return requests


class TestDeterminism:
    def test_same_spec_same_requests(self):
        spec = WorkloadSpec(seed=3, n_requests=50)
        assert generate_requests(spec) == generate_requests(spec)

    def test_prefix_stability(self):
        """Request i is pure in (seed, i): a longer run shares its prefix."""
        short = generate_requests(WorkloadSpec(seed=1, n_requests=20))
        long = generate_requests(WorkloadSpec(seed=1, n_requests=200))
        assert long[:20] == short

    def test_seed_changes_the_stream(self):
        a = generate_requests(WorkloadSpec(seed=0, n_requests=30))
        b = generate_requests(WorkloadSpec(seed=1, n_requests=30))
        assert a != b

    @pytest.mark.parametrize("arrival", ARRIVALS)
    @pytest.mark.parametrize("seed", [0, 3, 2**32, 2**70 + 3])
    def test_equals_per_request_seeding(self, seed, arrival):
        """Seeding every stream in one pass changes no request's bits."""
        spec = WorkloadSpec(seed=seed, n_requests=2500, arrival=arrival)
        assert generate_requests(spec) == per_request_loop(spec)


class TestShape:
    def test_arrivals_increase_and_deadlines_offset(self):
        spec = WorkloadSpec(seed=0, n_requests=100, slo_s=0.01)
        requests = generate_requests(spec)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)
        for r in requests:
            assert r.deadline_s == pytest.approx(r.arrival_s + 0.01)

    def test_rows_within_bounds(self):
        spec = WorkloadSpec(seed=0, n_requests=200, rows_min=2, rows_max=5)
        rows = {r.rows for r in generate_requests(spec)}
        assert rows <= {2, 3, 4, 5}
        assert len(rows) > 1

    def test_mean_rate_approximates_offered_load(self):
        spec = WorkloadSpec(seed=0, n_requests=2000, rate_rps=1000.0)
        last = generate_requests(spec)[-1]
        achieved = spec.n_requests / last.arrival_s
        assert achieved == pytest.approx(1000.0, rel=0.1)

    def test_burst_arrivals_are_denser_than_poisson(self, monkeypatch):
        monkeypatch.setattr(workload, "BURST_FACTOR", 8.0)
        base = WorkloadSpec(seed=0, n_requests=500, rate_rps=1000.0)
        burst = WorkloadSpec(
            seed=0, n_requests=500, rate_rps=1000.0, arrival="burst"
        )
        t_poisson = generate_requests(base)[-1].arrival_s
        t_burst = generate_requests(burst)[-1].arrival_s
        # The burst phases run at 8x the base rate, so the same request
        # count lands in strictly less time.
        assert t_burst < t_poisson


#: Field name -> constructor fed that field; each must reject nan/inf.
NON_FINITE_BUILDERS = {
    "rate_rps": lambda v: WorkloadSpec(rate_rps=v),
    "slo_s": lambda v: WorkloadSpec(slo_s=v),
    "max_delay_s": lambda v: BatchPolicy(8, max_delay_s=v),
    "budget_bytes": lambda v: build_pool("dense", 64, 8, v),
}


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            WorkloadSpec(seed=seed)

    def test_rejects_unknown_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            WorkloadSpec(arrival="adversarial")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            WorkloadSpec(rate_rps=0.0)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="rows"):
            WorkloadSpec(rows_min=4, rows_max=2)

    def test_rejects_bad_slo(self):
        with pytest.raises(ValueError, match="slo"):
            WorkloadSpec(slo_s=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", list(NON_FINITE_BUILDERS))
    def test_rejects_non_finite(self, field, value):
        # Caught at construction, not deep inside numpy or after the run.
        with pytest.raises(ValueError, match=field):
            NON_FINITE_BUILDERS[field](value)

    def test_requests_are_frozen(self):
        request = generate_requests(WorkloadSpec(n_requests=1))[0]
        with pytest.raises(AttributeError):
            request.rows = 99
        assert isinstance(request, Request)
