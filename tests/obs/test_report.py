"""Tests for the repro.run/1 manifest: build, round-trip, rendering."""

import json

import pytest

from repro import obs
from repro.experiments.smoke import smoke_manifest
from repro.ipu.compiler import compile_graph, memory_section
from repro.ipu.executor import Executor
from repro.ipu.liveness import compute_liveness, liveness_section
from repro.ipu.machine import GC200
from repro.ipu.poplin import build_matmul_graph


@pytest.fixture(scope="module")
def compiled():
    graph, _ = build_matmul_graph(GC200, 128, 128, 128)
    return compile_graph(graph, GC200, check_fit=False)


@pytest.fixture(scope="module")
def manifest(compiled):
    with obs.tracing() as tracer, obs.collecting() as registry:
        Executor(compiled).estimate()
    return obs.build_manifest(
        "unit",
        registry=registry,
        tracer=tracer,
        config={"size": 128},
        seed=7,
        sections={
            "memory": memory_section(compiled.memory),
            "liveness": liveness_section(compute_liveness(compiled.graph)),
        },
    )


class TestBuildManifest:
    def test_schema_and_identity(self, manifest):
        assert manifest["schema"] == "repro.run/1"
        assert manifest["name"] == "unit"
        assert manifest["seed"] == 7
        assert manifest["config"] == {"size": 128}
        assert "python" in manifest["host"]

    def test_memory_totals_match_compiler_exactly(self, compiled, manifest):
        # The acceptance bar: the manifest's per-tile memory section
        # must equal the compiler's MemoryReport, not approximate it.
        mem = manifest["memory"]
        report = compiled.memory
        assert mem["total_bytes"] == report.total_bytes
        assert mem["peak_tile_bytes"] == report.peak_tile_bytes
        assert mem["free_bytes"] == report.free_bytes
        assert mem["n_tiles"] == len(report.per_tile_bytes)
        assert mem["fits"] == report.fits
        b = report.breakdown
        assert mem["breakdown"]["variables"] == b.variables
        assert mem["breakdown"]["exchange_buffers"] == b.exchange_buffers
        assert sum(mem["breakdown"].values()) == pytest.approx(b.total)

    def test_per_tile_histogram_covers_every_tile(self, compiled, manifest):
        hist = manifest["memory"]["per_tile_histogram"]
        assert sum(hist["bucket_counts"]) == len(
            compiled.memory.per_tile_bytes
        )
        assert hist["count"] == len(compiled.memory.per_tile_bytes)
        assert hist["sum"] == pytest.approx(compiled.memory.total_bytes)
        assert hist["max"] == compiled.memory.peak_tile_bytes

    def test_liveness_section(self, compiled, manifest):
        live = manifest["liveness"]
        report = compute_liveness(compiled.graph)
        assert live["peak_bytes"] == report.peak_bytes
        assert live["n_steps"] == report.n_steps

    def test_hot_spans_ranked(self, manifest):
        spans = manifest["hot_spans"]
        assert spans, "expected spans from compile + estimate"
        totals = [s["total_s"] for s in spans]
        assert totals == sorted(totals, reverse=True)

    def test_metrics_present(self, manifest):
        names = {m["name"] for m in manifest["metrics"]}
        assert "executor.compute_s" in names
        # The fixture's registry was installed *after* module-level
        # compilation, so compile metrics come from whatever compiled
        # inside the collecting block — executor metrics are the
        # guaranteed ones here.

    def test_json_serializable(self, manifest):
        json.dumps(manifest, allow_nan=False)


class TestLogsSection:
    def test_counts_only_no_timestamps(self):
        log = obs.RunLog()
        log.warning("guard.retry", cell=1)
        log.warning("guard.retry", cell=2)
        log.error("guard.quarantine", cell=2)
        section = obs.logs_section(log)
        assert section == {
            "schema": obs.LOG_SCHEMA,
            "events": 3,
            "dropped": 0,
            "by_level": {"warning": 2, "error": 1},
            "by_event": {"guard.quarantine": 1, "guard.retry": 2},
        }

    def test_manifest_gains_logs_only_when_log_active(self):
        log = obs.RunLog()
        log.info("cache.miss")
        with_log = obs.build_manifest("unit", log=log)
        assert with_log["logs"]["events"] == 1
        assert "logs" not in obs.build_manifest("unit")
        assert "logs" not in obs.build_manifest("unit", log=obs.NULL_LOG)

    def test_render_report_shows_log_summary(self):
        log = obs.RunLog()
        log.warning("guard.retry", cell=1)
        text = obs.render_report(obs.build_manifest("unit", log=log))
        assert "structured log" in text
        assert "guard.retry" in text


class TestRoundTrip:
    def test_write_read_identical(self, manifest, tmp_path):
        path = obs.write_manifest(manifest, tmp_path / "m.json")
        loaded = obs.read_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))

    def test_write_read_regress_self_is_clean(self, manifest, tmp_path):
        path = obs.write_manifest(manifest, tmp_path / "m.json")
        loaded = obs.read_manifest(path)
        result = obs.regress(loaded, loaded)
        assert result.ok
        assert all(d.status in ("ok", "ignored") for d in result.diffs)
        assert all(
            d.rel_change == 0.0
            for d in result.diffs
            if d.rel_change is not None
        )

    def test_read_missing_raises(self, tmp_path):
        with pytest.raises(obs.ManifestError, match="not found"):
            obs.read_manifest(tmp_path / "nope.json")

    def test_read_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(obs.ManifestError, match="not JSON"):
            obs.read_manifest(path)

    def test_read_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro.run/99"}))
        with pytest.raises(obs.ManifestError, match="repro.run/99"):
            obs.read_manifest(path)

    def test_read_schemaless_raises(self, tmp_path):
        path = tmp_path / "none.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(obs.ManifestError, match="no 'schema'"):
            obs.read_manifest(path)


class TestRender:
    def test_render_contains_memory_totals(self, compiled, manifest):
        from repro.utils import format_bytes

        text = obs.render_report(manifest)
        assert "per-tile memory" in text
        assert format_bytes(compiled.memory.total_bytes) in text
        assert format_bytes(compiled.memory.peak_tile_bytes) in text
        assert format_bytes(compiled.memory.free_bytes) in text

    def test_render_lists_metrics_and_spans(self, manifest):
        text = obs.render_report(manifest)
        assert "executor.compute_s" in text
        assert "hot spans" in text
        assert "liveness" in text

    def test_render_minimal_manifest(self):
        # A manifest without memory/liveness (the bench default) renders.
        manifest = obs.build_manifest(
            "bare",
            registry=obs.MetricRegistry(),
            tracer=obs.Tracer(),
        )
        text = obs.render_report(manifest)
        assert "bare" in text
        assert "per-tile memory" not in text


class TestSmoke:
    def test_smoke_manifest_deterministic_metrics(self):
        a = smoke_manifest()
        b = smoke_manifest()
        assert a["metrics"] == b["metrics"]
        assert a["memory"] == b["memory"]
        assert a["liveness"] == b["liveness"]

    def test_smoke_matches_committed_baseline(self):
        # The CI gate's baseline must stay in sync with the code: if
        # this fails, regenerate benchmarks/baselines/smoke.json with
        # `python -m repro report --smoke --out benchmarks/baselines/smoke.json`.
        import pathlib

        baseline_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "baselines"
            / "smoke.json"
        )
        baseline = obs.read_manifest(baseline_path)
        result = obs.regress(smoke_manifest(), baseline)
        assert result.ok, result.render()
