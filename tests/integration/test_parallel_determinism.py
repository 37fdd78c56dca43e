"""Satellite 4: ``--jobs 4`` produces the same results as ``--jobs 1``.

A small fig6 grid is run serially and with four workers under full
observability; the experiment rows, the ``repro.run/1`` manifests
(modulo wall-clock-dependent sections: host info, span timings,
hot-span rankings), the merged per-cell span trees and the structured
log streams must all match.
"""

import copy

from repro import obs
from repro.cache import CompilationCache, cache_section, caching
from repro.experiments import fig6

SIZES = [128, 256]
DEVICES = ("ipu",)

#: Manifest sections that legitimately differ between runs: host info
#: carries a timestamp/pid, trace spans carry wall-clock durations, and
#: hot_spans ranks by those durations.
WALL_CLOCK_KEYS = ("host", "trace", "hot_spans")


def _run_with(jobs: int, cache_dir):
    with obs.tracing() as tracer, obs.collecting() as registry, \
            obs.logging() as runlog, caching(
        CompilationCache(path=cache_dir)
    ) as cache:
        rows = fig6.run(SIZES, devices=DEVICES, jobs=jobs)
        manifest = obs.build_manifest(
            "fig6-determinism",
            registry=registry,
            tracer=tracer,
            config={"jobs": jobs},
            seed=0,
            log=runlog,
            sections={"cache": cache_section(cache)},
        )
    return rows, manifest, tracer, runlog


def _span_tree(tracer) -> dict:
    """The wall-clock-free shape of the merged trace, keyed by track.

    Only cell tracks are compared: they come from worker buffers (or
    the serial in-process equivalent) and must be bit-identical in
    structure; parent-side host bookkeeping spans may differ by runner.
    """
    tree: dict = {}
    for span in tracer.spans:
        if not span.track.startswith("cell"):
            continue
        tree.setdefault(span.track, []).append(
            (span.name, span.category, span.depth)
        )
    return tree


def _log_stream(runlog) -> list:
    """Every correlation-relevant log field except the timestamps."""
    return [
        (e.event, e.level, e.run_id, e.worker, e.span, tuple(sorted(e.fields.items())))
        for e in runlog.events
    ]


def _strip_wall_clock(manifest: dict) -> dict:
    stripped = copy.deepcopy(manifest)
    for key in WALL_CLOCK_KEYS:
        stripped.pop(key, None)
    stripped["config"].pop("jobs", None)
    # Timing metrics (histograms over seconds) vary run to run; keep
    # only the counters, which must match exactly.
    stripped["metrics"] = sorted(
        (
            (entry["name"], tuple(sorted(entry["labels"].items())), entry["value"])
            for entry in stripped["metrics"]
            if entry["type"] == "counter"
        ),
    )
    return stripped


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1(self, tmp_path):
        serial_rows, serial_manifest, _, _ = _run_with(
            1, tmp_path / "serial"
        )
        parallel_rows, parallel_manifest, _, _ = _run_with(
            4, tmp_path / "par"
        )

        assert serial_rows == parallel_rows
        assert _strip_wall_clock(serial_manifest) == _strip_wall_clock(
            parallel_manifest
        )

    def test_cache_sections_match(self, tmp_path):
        _, serial_manifest, _, _ = _run_with(1, tmp_path / "serial")
        _, parallel_manifest, _, _ = _run_with(4, tmp_path / "par")
        assert serial_manifest["cache"] == parallel_manifest["cache"]
        assert serial_manifest["cache"]["enabled"] is True

    def test_merged_span_trees_match(self, tmp_path):
        _, _, serial_tracer, _ = _run_with(1, tmp_path / "serial")
        _, _, parallel_tracer, _ = _run_with(4, tmp_path / "par")
        serial_tree = _span_tree(serial_tracer)
        parallel_tree = _span_tree(parallel_tracer)
        assert serial_tree, "expected worker spans on cellN/... tracks"
        assert serial_tree == parallel_tree
        # Worker-side compile spans made it across the process line.
        names = {
            name
            for members in parallel_tree.values()
            for name, _, _ in members
        }
        assert any(name.startswith("compile") for name in names)

    def test_log_streams_and_manifest_sections_match(self, tmp_path):
        _, serial_manifest, _, serial_log = _run_with(
            1, tmp_path / "serial"
        )
        _, parallel_manifest, _, parallel_log = _run_with(
            4, tmp_path / "par"
        )
        assert serial_manifest["logs"] == parallel_manifest["logs"]
        assert serial_manifest["logs"]["schema"] == obs.LOG_SCHEMA
        assert _log_stream(serial_log) == _log_stream(parallel_log)
        # Correlation ids are stamped and deterministic across runners.
        run_ids = {e.run_id for e in parallel_log.events}
        assert run_ids and all(run_ids)
