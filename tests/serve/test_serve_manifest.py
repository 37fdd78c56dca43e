"""Manifest wiring and the jobs=1 vs jobs=2 byte-identity guarantee."""

import json

import pytest

from repro import obs
from repro.bench.parallel import run_grid
from repro.cache import CompilationCache, caching
from repro.serve import (
    SERVE_METHODS,
    ServeScenario,
    record_metrics,
    record_spans,
    serve_section,
    serve_worker,
)

# A small scenario so the compile step stays cheap in unit tests.  The
# budget is tight enough (6 MiB at dim 128) that dense saturates while
# the structured pools still have headroom.
SCENARIO = ServeScenario(
    method="dense",
    dim=128,
    budget_bytes=6 * 2**20,
    n_requests=150,
    rate_rps=600000.0,
)


def configs():
    import dataclasses

    return [
        dataclasses.replace(SCENARIO, method=m).as_config()
        for m in SERVE_METHODS
    ]


def build(results, seed=0):
    registry = obs.MetricRegistry()
    tracer = obs.Tracer()
    record_metrics(results, registry)
    record_spans(results, tracer)
    return obs.build_manifest(
        "serve",
        registry=registry,
        tracer=tracer,
        config={"scenario": "test"},
        seed=seed,
        sections={"serve": serve_section(results)},
    )


class TestSection:
    def test_section_schema_and_methods(self):
        results = [serve_worker(c) for c in configs()]
        section = serve_section(results)
        assert section["schema"] == "repro.serve/1"
        assert [m["method"] for m in section["methods"]] == list(
            SERVE_METHODS
        )
        for method in section["methods"]:
            assert method["n_replicas"] >= 1
            assert method["goodput_rps"] > 0
            assert 0 <= method["latency_s"]["p50"] <= (
                method["latency_s"]["p99"]
            )

    def test_structured_methods_beat_dense(self):
        """The acceptance criterion, at unit-test scale: strictly more
        replicas and strictly higher goodput at equal budget and load."""
        by_method = {
            r["method"]: r for r in (serve_worker(c) for c in configs())
        }
        dense = by_method["dense"]
        for method in ("butterfly", "pixelfly"):
            assert by_method[method]["n_replicas"] > dense["n_replicas"]
            assert by_method[method]["goodput_rps"] > dense["goodput_rps"]

    def test_manifest_carries_serve_section(self):
        results = [serve_worker(c) for c in configs()[:1]]
        manifest = build(results)
        assert "serve" in manifest
        assert manifest["serve"]["schema"] == "repro.serve/1"
        names = {m["name"] for m in manifest["metrics"]}
        assert "serve.goodput_rps" in names
        assert "serve.p99_s" in names
        rendered = obs.render_report(manifest)
        assert "serving [repro.serve/1]" in rendered
        assert "goodput" in rendered

    def test_spans_land_on_per_replica_tracks(self):
        results = [serve_worker(c) for c in configs()[:1]]
        tracer = obs.Tracer()
        record_spans(results, tracer)
        tracks = tracer.tracks()
        assert any(t.startswith("serve/dense/r") for t in tracks)


@pytest.mark.slow
class TestJobsByteIdentity:
    def test_jobs1_vs_jobs2_manifests_byte_identical(self, tmp_path):
        cache = CompilationCache(path=tmp_path / "cache")
        manifests = []
        for jobs in (1, 2):
            with caching(cache):
                results = run_grid(
                    serve_worker, configs(), jobs=jobs, seed=0
                )
            manifests.append(build(results))
        a, b = (
            json.dumps(m, indent=2, sort_keys=True) for m in manifests
        )
        assert a == b
