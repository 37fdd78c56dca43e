"""Tests for the Chrome trace-event exporter and the flame summary."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import export


def sample_tracer() -> obs.Tracer:
    tracer = obs.Tracer()
    with tracer.span("host_work", category="test", n=np.int64(3)):
        pass
    tracer.add_span("step0", 1e-3, "ipu", category="compute", f=np.float64(2))
    tracer.add_span("compute", 6e-4, "ipu", start_s=0.0, depth=1)
    tracer.counter("mem", {"bytes": 123})
    return tracer


class TestChromeTrace:
    def test_document_shape(self):
        doc = obs.to_chrome_trace(sample_tracer())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "C"}

    def test_spans_in_microseconds(self):
        doc = obs.to_chrome_trace(sample_tracer())
        step = next(
            e for e in doc["traceEvents"] if e.get("name") == "step0"
        )
        assert step["dur"] == pytest.approx(1e-3 * 1e6)
        assert step["ph"] == "X"
        assert step["cat"] == "compute"

    def test_track_names_in_metadata(self):
        doc = obs.to_chrome_trace(sample_tracer())
        thread_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"host", "ipu"} <= thread_names

    def test_numpy_attributes_serializable(self):
        doc = obs.to_chrome_trace(sample_tracer())
        text = json.dumps(doc)  # raises on non-JSON types
        assert "traceEvents" in text

    def test_counter_event(self):
        doc = obs.to_chrome_trace(sample_tracer())
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        assert counter["name"] == "mem"
        assert counter["args"] == {"bytes": 123}

    def test_write_round_trip(self, tmp_path):
        path = obs.write_chrome_trace(sample_tracer(), tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) >= 5


class TestFlameSummary:
    def test_empty(self):
        assert obs.flame_summary(obs.Tracer()) == "(empty trace)"

    def test_lists_all_tracks_and_names(self):
        text = obs.flame_summary(sample_tracer())
        assert "[host]" in text and "[ipu]" in text
        assert "host_work" in text and "step0" in text

    def test_rows_carry_track_labels(self):
        text = obs.flame_summary(sample_tracer())
        (row,) = [
            line for line in text.splitlines() if "step0" in line
        ]
        assert row.rstrip().endswith("ipu")

    def test_track_filter_glob(self):
        text = obs.flame_summary(sample_tracer(), track="ipu")
        assert "step0" in text
        assert "host_work" not in text
        # Globs select merged grid-cell tracks too.
        tracer = sample_tracer()
        parent = obs.Tracer()
        parent.merge_snapshot(tracer.snapshot(), prefix="cell2")
        filtered = obs.flame_summary(parent, track="cell*/ipu")
        assert "step0" in filtered
        assert "host_work" not in filtered

    def test_track_filter_no_match_says_so(self):
        text = obs.flame_summary(sample_tracer(), track="gpu*")
        assert "no tracks match" in text

    def test_heaviest_first(self):
        tracer = obs.Tracer()
        tracer.add_span("small", 1e-6, "dev")
        tracer.add_span("big", 1e-3, "dev")
        text = obs.flame_summary(tracer)
        assert text.index("big") < text.index("small")

    def test_max_rows_truncates_with_footer(self, monkeypatch):
        monkeypatch.setattr(export, "FLAME_ROWS", 3)
        tracer = obs.Tracer()
        for i in range(10):
            tracer.add_span(f"s{i}", 1e-6, "dev")
        text = obs.flame_summary(tracer)
        # No-silent-caps rule: capped output announces the cap and the
        # true row count, so it can never be mistaken for complete.
        assert "… and 7 more rows" in text
        assert "of 10" in text

    def test_no_footer_when_complete(self, monkeypatch):
        monkeypatch.setattr(export, "FLAME_ROWS", 3)
        tracer = obs.Tracer()
        for i in range(3):
            tracer.add_span(f"s{i}", 1e-6, "dev")
        text = obs.flame_summary(tracer)
        assert "more rows" not in text
