"""Cross-process trace plumbing: context, snapshots, merge, propagation."""

import json

import pytest

from repro import obs
from repro.obs.context import (
    ROOT_CONTEXT,
    TraceContext,
    context,
    derive_run_id,
    get_context,
    worker_track,
)
from repro.obs.propagate import obs_spec, worker_observability
from repro.obs.tracer import Tracer


class TestTraceContext:
    def test_default_is_root(self):
        assert get_context() is ROOT_CONTEXT
        assert ROOT_CONTEXT.run_id == ""
        assert ROOT_CONTEXT.worker is None

    def test_context_manager_installs_and_restores(self):
        ctx = TraceContext(run_id="abc", parent_span="grid", worker=2)
        with context(ctx):
            assert get_context() is ctx
        assert get_context() is ROOT_CONTEXT

    def test_context_is_frozen(self):
        with pytest.raises(AttributeError):
            TraceContext().run_id = "x"

    def test_as_dict(self):
        ctx = TraceContext(run_id="r", parent_span="p", worker=0)
        assert ctx.as_dict() == {
            "run_id": "r",
            "parent_span": "p",
            "worker": 0,
        }


class TestDeriveRunId:
    def test_deterministic_and_short(self):
        a = derive_run_id("fig6", 0, 9)
        assert a == derive_run_id("fig6", 0, 9)
        assert len(a) == 12
        int(a, 16)  # hex

    def test_distinct_grids_differ(self):
        assert derive_run_id("fig6", 0, 9) != derive_run_id("fig6", 1, 9)
        assert derive_run_id("fig6", 0, 9) != derive_run_id("fig7", 0, 9)

    def test_part_boundaries_matter(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_run_id("ab", "c") != derive_run_id("a", "bc")


class TestWorkerTrack:
    def test_keyed_by_cell_index(self):
        assert worker_track(0) == "cell0"
        assert worker_track(11) == "cell11"


class TestTracerSnapshotMerge:
    def worker_buffer(self) -> dict:
        tracer = Tracer()
        with tracer.span("compile", category="compile"):
            with tracer.span("lower", category="compile"):
                pass
        tracer.add_span("step", 1e-6, track="ipu", category="compute")
        tracer.counter("mem", {"bytes": 7.0})
        return tracer.snapshot()

    def test_snapshot_is_picklable_json(self):
        snap = self.worker_buffer()
        assert json.loads(json.dumps(snap)) == snap

    def test_merge_prefixes_tracks(self):
        parent = Tracer()
        parent.merge_snapshot(self.worker_buffer(), prefix=worker_track(3))
        tracks = set(parent.tracks())
        assert "cell3/host" in tracks
        assert "cell3/ipu" in tracks
        # Every merged *span* landed on a prefixed track (the parent's
        # own empty host track may still be listed).
        assert all(s.track.startswith("cell3/") for s in parent.spans)

    def test_merge_preserves_structure_and_clock(self):
        snap = self.worker_buffer()
        parent = Tracer()
        parent.merge_snapshot(snap, prefix="cell0")
        merged = {
            (s.name, s.category, s.depth) for s in parent.spans
        }
        original = {
            (s["name"], s["category"], s["depth"]) for s in snap["spans"]
        }
        assert merged == original
        # No time re-basing: merged starts equal the worker's own clock.
        starts = sorted(s.start_s for s in parent.spans)
        assert starts == sorted(s["start_s"] for s in snap["spans"])

    def test_merge_without_prefix_keeps_track_names(self):
        parent = Tracer()
        parent.merge_snapshot(self.worker_buffer())
        assert "ipu" in parent.tracks()

    def test_merge_twice_is_additive(self):
        parent = Tracer()
        parent.merge_snapshot(self.worker_buffer(), prefix="cell0")
        parent.merge_snapshot(self.worker_buffer(), prefix="cell1")
        assert len(parent.spans) == 2 * len(
            self.worker_buffer()["spans"]
        )


class TestObsSpec:
    def test_none_when_everything_disabled(self):
        assert obs_spec("run", "grid", 0) is None

    def test_reflects_ambient_instruments(self):
        with obs.tracing():
            spec = obs_spec("r", "g", 2)
        assert spec == {
            "run_id": "r",
            "parent_span": "g",
            "worker": 2,
            "trace": True,
            "log": False,
        }
        with obs.logging():
            spec = obs_spec("r", "g", 2)
        assert spec["log"] and not spec["trace"]

    def test_spec_is_picklable_scalars(self):
        with obs.tracing(), obs.logging():
            spec = obs_spec("r", "g", 1)
        assert json.loads(json.dumps(spec)) == spec


class TestWorkerObservability:
    def test_none_spec_touches_nothing(self):
        before = (obs.get_tracer(), obs.get_logger(), get_context())
        with worker_observability(None) as (tracer, runlog):
            assert not tracer.enabled
            assert not runlog.enabled
            assert (
                obs.get_tracer(),
                obs.get_logger(),
                get_context(),
            ) == before

    def test_spec_installs_fresh_buffers_and_context(self):
        spec = {
            "run_id": "r",
            "parent_span": "g",
            "worker": 5,
            "trace": True,
            "log": True,
        }
        with worker_observability(spec) as (tracer, runlog):
            assert obs.get_tracer() is tracer
            assert obs.get_logger() is runlog
            assert get_context().worker == 5
            with tracer.span("work"):
                runlog.info("evt")
        assert obs.get_tracer() is obs.NULL_TRACER
        assert get_context() is ROOT_CONTEXT
        # Buffers outlive the block: the parent snapshots after exit.
        assert [s.name for s in tracer.spans] == ["work"]
        (event,) = runlog.events
        assert event.run_id == "r"
        assert event.worker == 5
        assert event.span == "work"

    def test_partial_spec_installs_null_for_disabled_side(self):
        spec = {
            "run_id": "r",
            "parent_span": "g",
            "worker": 0,
            "trace": True,
            "log": False,
        }
        with worker_observability(spec) as (tracer, runlog):
            assert tracer.enabled
            assert not runlog.enabled

    def test_buffers_flushed_on_exception(self):
        spec = {
            "run_id": "r",
            "parent_span": "g",
            "worker": 0,
            "trace": True,
            "log": True,
        }
        tracer = runlog = None
        with pytest.raises(RuntimeError):
            with worker_observability(spec) as (tracer, runlog):
                with tracer.span("doomed"):
                    runlog.error("boom")
                    raise RuntimeError("x")
        # The unwinding span closed into the buffer (satellite: partial
        # observability on worker failure).
        assert [s.name for s in tracer.spans] == ["doomed"]
        assert [e.event for e in runlog.events] == ["boom"]
