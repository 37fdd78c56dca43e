"""Timeline report: trace/manifest ingestion and self-contained HTML."""

from repro import obs
from repro.obs import timeline
from repro.obs.log import RunLog
from repro.obs.timeline import (
    _recover_depths,
    render_timeline_html,
    spans_from_chrome_trace,
    spans_from_manifest,
)
from repro.obs.tracer import SpanRecord, Tracer


def traced_workload() -> Tracer:
    tracer = Tracer()
    with tracer.span("outer", category="host"):
        with tracer.span("inner", category="host", step=1):
            pass
    tracer.add_span("kernel", 2e-6, track="ipu", category="compute")
    tracer.counter("mem", {"bytes": 42.0})
    return tracer


class TestSpansFromChromeTrace:
    def test_round_trip_recovers_spans_and_counters(self):
        tracer = traced_workload()
        doc = obs.to_chrome_trace(tracer)
        spans, counters = spans_from_chrome_trace(doc)
        assert {s.name for s in spans} == {"outer", "inner", "kernel"}
        assert {s.track for s in spans} == {"host", "ipu"}
        (counter,) = counters
        assert counter.name == "mem"
        assert counter.values == {"bytes": 42.0}

    def test_depth_recovered_by_containment(self):
        tracer = traced_workload()
        spans, _ = spans_from_chrome_trace(obs.to_chrome_trace(tracer))
        depth = {s.name: s.depth for s in spans}
        assert depth["outer"] == 0
        assert depth["inner"] == 1
        assert depth["kernel"] == 0

    def test_unknown_tid_gets_placeholder_track(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "s", "tid": 9, "ts": 0, "dur": 5}
            ]
        }
        spans, _ = spans_from_chrome_trace(doc)
        assert spans[0].track == "tid9"

    def test_recover_depths_sibling_spans_stay_flat(self):
        spans = [
            SpanRecord("a", "", "t", start_s=0.0, duration_s=1.0),
            SpanRecord("b", "", "t", start_s=1.0, duration_s=1.0),
        ]
        _recover_depths(spans)
        assert [s.depth for s in spans] == [0, 0]


class TestSpansFromManifest:
    def test_hot_spans_become_sequential_bars(self):
        manifest = {
            "hot_spans": [
                {"track": "ipu", "name": "a", "total_s": 2.0, "calls": 3},
                {"track": "ipu", "name": "b", "total_s": 1.0, "calls": 1},
                {"track": "host", "name": "c", "total_s": 0.5, "calls": 1},
            ]
        }
        spans = spans_from_manifest(manifest)
        assert [(s.track, s.start_s, s.duration_s) for s in spans] == [
            ("ipu", 0.0, 2.0),
            ("ipu", 2.0, 1.0),
            ("host", 0.0, 0.5),
        ]
        assert spans[0].attributes == {"calls": 3}
        assert spans[0].category == "aggregate"

    def test_empty_manifest_yields_no_spans(self):
        assert spans_from_manifest({}) == []


class TestRenderTimelineHtml:
    def render(self, **kwargs):
        tracer = traced_workload()
        spans, counters = spans_from_chrome_trace(
            obs.to_chrome_trace(tracer)
        )
        log = RunLog()
        log.warning("guard.retry", "deadline <hit>", cell=1)
        return render_timeline_html(
            spans, counters, events=list(log.events), **kwargs
        )

    def test_self_contained_no_network_deps(self):
        html_text = self.render()
        assert html_text.startswith("<!DOCTYPE html>")
        for forbidden in ("<script", "http://", "https://", "@import"):
            assert forbidden not in html_text

    def test_all_streams_on_one_page(self):
        html_text = self.render()
        assert "outer" in html_text and "kernel" in html_text
        assert "guard.retry" in html_text  # log lane + table
        assert "lvl-warning" in html_text

    def test_log_fields_are_escaped(self):
        html_text = self.render()
        assert "<hit>" not in html_text
        assert "&lt;hit&gt;" in html_text

    def test_metrics_table_rendered_when_given(self):
        html_text = self.render(
            metrics=[{"name": "cache.hits", "type": "counter", "value": 7}]
        )
        assert "cache.hits" in html_text
        assert "<h2>Metrics</h2>" in html_text

    def test_span_cap_is_announced_not_silent(self, monkeypatch):
        monkeypatch.setattr(timeline, "MAX_SPANS_PER_TRACK", 3)
        spans = [
            SpanRecord(f"s{i}", "c", "t", start_s=float(i), duration_s=0.5)
            for i in range(10)
        ]
        _recover_depths(spans)
        html_text = render_timeline_html(spans)
        assert "showing the 3 longest of 10 spans" in html_text

    def test_log_table_cap_is_announced(self, monkeypatch):
        monkeypatch.setattr(timeline, "MAX_LOG_ROWS", 2)
        log = RunLog()
        for i in range(5):
            log.info(f"e{i}")
        html_text = render_timeline_html([], events=list(log.events))
        assert "3 more events" in html_text

    def test_empty_inputs_still_render(self):
        html_text = render_timeline_html([])
        assert "</html>" in html_text

    def test_write_creates_parents(self, tmp_path):
        path = obs.write_timeline_html(
            self.render(), tmp_path / "deep" / "t.html"
        )
        assert path.is_file()
        assert path.read_text().startswith("<!DOCTYPE html>")
