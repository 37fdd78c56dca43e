"""Tests for the tracer core: spans, counters, tracks, enable/disable."""

import pytest

from repro import obs
from repro.obs.tracer import HOST_TRACK


class TestHostSpans:
    def test_span_records_interval(self):
        tracer = obs.Tracer()
        with tracer.span("work", category="test", k=1):
            pass
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.category == "test"
        assert span.track == HOST_TRACK
        assert span.duration_s >= 0
        assert span.attributes == {"k": 1}

    def test_nesting_depth(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].start_s >= by_name["outer"].start_s

    def test_span_yields_mutable_record(self):
        tracer = obs.Tracer()
        with tracer.span("work") as record:
            record.attributes["found"] = 42
        assert tracer.spans[0].attributes["found"] == 42

    def test_span_recorded_on_exception(self):
        tracer = obs.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError()
        assert len(tracer.spans) == 1
        assert not tracer._host_stack  # stack unwound


class TestVirtualSpans:
    def test_cursor_advances(self):
        tracer = obs.Tracer()
        tracer.add_span("a", 1.0, "dev")
        tracer.add_span("b", 0.5, "dev")
        assert tracer.cursor("dev") == pytest.approx(1.5)
        spans = tracer.spans_on("dev")
        assert spans[0].start_s == 0.0
        assert spans[1].start_s == pytest.approx(1.0)

    def test_tracks_independent(self):
        tracer = obs.Tracer()
        tracer.add_span("a", 1.0, "dev1")
        tracer.add_span("b", 2.0, "dev2")
        assert tracer.cursor("dev1") == pytest.approx(1.0)
        assert tracer.cursor("dev2") == pytest.approx(2.0)

    def test_nested_phase_spans_do_not_advance_cursor(self):
        tracer = obs.Tracer()
        tracer.add_span("step", 1.0, "dev")
        tracer.add_span("phase", 0.25, "dev", start_s=0.0, depth=1)
        assert tracer.cursor("dev") == pytest.approx(1.0)

    def test_explicit_start(self):
        tracer = obs.Tracer()
        tracer.add_span("late", 1.0, "dev", start_s=5.0)
        assert tracer.cursor("dev") == pytest.approx(6.0)


class TestCounters:
    def test_scalar_becomes_value_series(self):
        tracer = obs.Tracer()
        tracer.counter("loss", 0.5)
        assert tracer.counters[0].values == {"value": 0.5}

    def test_tracks_listing(self):
        tracer = obs.Tracer()
        tracer.add_span("a", 1.0, "dev")
        tracer.counter("c", 1.0)
        assert tracer.tracks()[0] == HOST_TRACK
        assert "dev" in tracer.tracks()


class TestDisabledTracer:
    def test_records_nothing(self):
        null = obs.Tracer(enabled=False)
        with null.span("x", k=1):
            pass
        null.add_span("y", 1.0, "dev")
        null.counter("c", 2.0)
        assert null.spans == []
        assert null.counters == []
        assert not null.enabled

    def test_default_tracer_is_null(self):
        assert obs.get_tracer() is obs.NULL_TRACER


class TestInstallation:
    def test_tracing_installs_and_restores(self):
        before = obs.get_tracer()
        with obs.tracing() as tracer:
            assert obs.get_tracer() is tracer
            assert tracer.enabled
        assert obs.get_tracer() is before

    def test_tracing_restores_on_exception(self):
        before = obs.get_tracer()
        with pytest.raises(ValueError):
            with obs.tracing():
                raise ValueError()
        assert obs.get_tracer() is before

    def test_tracing_nests(self):
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                assert obs.get_tracer() is inner
            assert obs.get_tracer() is outer
