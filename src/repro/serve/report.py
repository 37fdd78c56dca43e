"""The ``repro.serve/1`` manifest section and its obs wiring.

The split of responsibilities is what makes ``--jobs 1`` and ``--jobs 2``
runs byte-identical: the *simulation* (worker side, possibly in a forked
process) returns one plain dict per method, and the *presentation*
(parent side) rebuilds metrics and trace spans from those dicts in
method order.  Nothing that reaches the manifest ever touches a wall
clock or depends on which process ran which method.

:func:`serve_worker` is the :func:`repro.bench.parallel.run_grid` worker
(module top level, so it pickles by reference); :func:`serve_section`
produces the manifest section; :func:`record_metrics` /
:func:`record_spans` populate a :class:`~repro.obs.metrics.MetricRegistry`
and a :class:`~repro.obs.tracer.Tracer` so the standard report/regress/
timeline tooling works on serving runs unchanged — ``python -m repro
timeline`` renders one track per replica.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.serve.batcher import BatchPolicy
from repro.serve.replica import build_pool
from repro.serve.server import (
    ServeConfig,
    death_schedule,
    simulate,
)
from repro.serve.workload import WorkloadSpec

__all__ = [
    "SERVE_SCHEMA",
    "ServeScenario",
    "record_metrics",
    "record_spans",
    "serve_section",
    "serve_worker",
]

#: Manifest section schema written by :func:`serve_section`.
SERVE_SCHEMA = "repro.serve/1"


@dataclass(frozen=True)
class ServeScenario:
    """One method's full serving configuration — the grid cell."""

    method: str
    dim: int = 512
    depth: int = 3
    batch_rows: int = 8
    budget_bytes: float = 32 * 2**20
    max_replicas: int = 64
    n_requests: int = 400
    rate_rps: float = 400000.0
    arrival: str = "poisson"
    slo_ms: float = 0.5
    max_delay_ms: float = 0.05
    queue_max_requests: int = 32
    n_deaths: int = 1
    seed: int = 0

    def as_config(self) -> dict:
        """The plain-dict grid config (worker processes receive it pickled)."""
        return asdict(self)


def serve_worker(config: dict, seed_seq=None) -> dict:
    """Simulate one method's serving run; returns a plain dict.

    The grid's ``seed_seq`` is deliberately unused: every draw inside
    the simulation is keyed off ``config["seed"]`` so the result is a
    pure function of the config — independent of worker placement.
    """
    scenario = ServeScenario(**config)
    pool = build_pool(
        scenario.method,
        scenario.dim,
        scenario.batch_rows,
        scenario.budget_bytes,
        depth=scenario.depth,
        max_replicas=scenario.max_replicas,
        seed=0,
    )
    workload = WorkloadSpec(
        seed=scenario.seed,
        n_requests=scenario.n_requests,
        rate_rps=scenario.rate_rps,
        arrival=scenario.arrival,
        rows_min=1,
        rows_max=min(4, scenario.batch_rows),
        slo_s=scenario.slo_ms / 1e3,
    )
    horizon_s = scenario.n_requests / scenario.rate_rps
    config_obj = ServeConfig(
        batch_policy=BatchPolicy(
            max_batch_rows=scenario.batch_rows,
            max_delay_s=scenario.max_delay_ms / 1e3,
        ),
        queue_max_requests=scenario.queue_max_requests,
        deaths=death_schedule(
            scenario.seed, pool.n_replicas, scenario.n_deaths, horizon_s
        ),
    )
    return simulate(pool, workload, config_obj).as_dict()


def serve_section(results: list[dict]) -> dict:
    """The ``repro.serve/1`` manifest section for one serving run.

    *results* is one :meth:`ServeResult.as_dict` per method, in method
    order.  Per-batch logs are summarised away (they live in the trace);
    everything else is carried so regressions in replica count, shed
    rate or tail latency are visible in a manifest diff.
    """
    methods = []
    for result in results:
        entry = {
            key: result[key]
            for key in (
                "method",
                "dim",
                "batch_rows",
                "budget_bytes",
                "replica_bytes",
                "n_replicas",
                "service_s",
                "requests",
                "completed",
                "on_time",
                "failed",
                "shed",
                "shed_rate",
                "retries",
                "deaths",
                "latency_s",
                "goodput_rps",
                "offered_rps",
                "occupancy",
                "horizon_s",
            )
        }
        entry["batches"] = len(result["batches"])
        entry["lost_batches"] = sum(
            1 for b in result["batches"] if b["status"] == "lost"
        )
        entry["replicas"] = [
            {k: v for k, v in replica.items()}
            for replica in result["replicas"]
        ]
        methods.append(entry)
    return {"schema": SERVE_SCHEMA, "methods": methods}


def record_metrics(results: list[dict], registry) -> None:
    """Rebuild the serving metrics deterministically, in method order.

    Naming is chosen for the regress gate's default directions: the
    ``_s`` gauges (latency percentiles) fail CI on increase, the
    ``_bytes`` gauge fails on replica-footprint growth, and the
    ``.count`` counters gate both ways.
    """
    for result in results:
        method = result["method"]
        registry.gauge("serve.replicas", method=method).set(
            result["n_replicas"]
        )
        registry.gauge("serve.replica_bytes", method=method).set(
            result["replica_bytes"]
        )
        registry.gauge("serve.service_s", method=method).set(
            result["service_s"]
        )
        registry.gauge("serve.goodput_rps", method=method).set(
            result["goodput_rps"]
        )
        registry.gauge("serve.occupancy", method=method).set(
            result["occupancy"]
        )
        for percentile in ("p50", "p95", "p99"):
            registry.gauge(
                f"serve.{percentile}_s", method=method
            ).set(result["latency_s"][percentile])
        registry.counter("serve.requests.count", method=method).inc(
            result["requests"]
        )
        registry.counter("serve.completed.count", method=method).inc(
            result["completed"]
        )
        registry.counter("serve.on_time.count", method=method).inc(
            result["on_time"]
        )
        registry.counter("serve.failed.count", method=method).inc(
            result["failed"]
        )
        for reason, count in sorted(result["shed"].items()):
            registry.counter(
                "serve.shed.count", method=method, reason=reason
            ).inc(count)
        registry.counter("serve.retry.count", method=method).inc(
            result["retries"]
        )
        registry.counter("serve.death.count", method=method).inc(
            result["deaths"]
        )


def record_spans(results: list[dict], tracer) -> None:
    """Lay each method's batches onto per-replica virtual tracks.

    Track names are ``serve/<method>/r<index>``, so the HTML timeline
    shows one lane per replica with its batch intervals — lost batches
    (replica died mid-service) render under their own span name.
    """
    for result in results:
        method = result["method"]
        for batch in result["batches"]:
            name = (
                "serve.batch" if batch["status"] == "ok" else "serve.lost"
            )
            tracer.add_span(
                name,
                batch["service_s"],
                track=f"serve/{method}/r{batch['replica']}",
                category="serve",
                start_s=batch["start_s"],
                rows=batch["rows"],
                pad_rows=batch["pad_rows"],
                reason=batch["reason"],
            )
        for replica in result["replicas"]:
            if replica["died_at_s"] is not None:
                tracer.add_span(
                    "serve.dead",
                    max(0.0, result["horizon_s"] - replica["died_at_s"]),
                    track=f"serve/{method}/r{replica['index']}",
                    category="fault",
                    start_s=replica["died_at_s"],
                )
