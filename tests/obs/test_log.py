"""Structured run logs: recording, correlation, merge, JSONL round trip."""

import json

import pytest

from repro import obs
from repro.obs.context import TraceContext, context
from repro.obs import log as log_module
from repro.obs.log import LEVELS, LOG_SCHEMA, LogEvent, RunLog


class TestRecording:
    def test_log_records_event_with_fields(self):
        log = RunLog()
        record = log.log("cache.miss", "cold start", key="abc")
        assert record is not None
        assert record.event == "cache.miss"
        assert record.message == "cold start"
        assert record.level == "info"
        assert record.fields == {"key": "abc"}
        assert log.events == [record]

    def test_level_shortcuts(self):
        log = RunLog()
        log.log("a", level="debug")
        log.info("b")
        log.warning("c")
        log.error("d")
        assert [e.level for e in log.events] == list(LEVELS)

    def test_seq_and_time_monotonic(self):
        log = RunLog()
        for _ in range(5):
            log.info("tick")
        assert [e.seq for e in log.events] == list(range(5))
        times = [e.time_s for e in log.events]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_bounded_buffer_counts_drops(self, monkeypatch):
        monkeypatch.setattr(log_module, "MAX_EVENTS", 2)
        log = RunLog()
        assert log.info("a") is not None
        assert log.info("b") is not None
        assert log.info("c") is None
        assert log.info("d") is None
        assert len(log.events) == 2
        assert log.dropped == 2

    def test_correlation_from_ambient_context_and_tracer(self):
        log = RunLog()
        ctx = TraceContext(run_id="deadbeef0123", parent_span="g", worker=3)
        with context(ctx), obs.tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    log.info("evt")
        (event,) = log.events
        assert event.run_id == "deadbeef0123"
        assert event.worker == 3
        assert event.span == "inner"

    def test_no_context_leaves_fields_empty(self):
        log = RunLog()
        log.info("evt")
        (event,) = log.events
        assert event.run_id == ""
        assert event.worker is None
        assert event.span == ""


class TestMergeSnapshot:
    def test_snapshot_round_trips(self):
        log = RunLog()
        log.warning("guard.retry", "oom", cell=2)
        snap = log.snapshot()
        assert json.loads(json.dumps(snap)) == snap  # JSON-ready
        other = RunLog()
        other.merge_snapshot(snap)
        assert [e.as_dict() for e in other.events] == snap

    def test_merge_backfills_worker_only_when_missing(self):
        child = RunLog()
        child.info("plain")
        ctx = TraceContext(run_id="r", worker=7)
        with context(ctx):
            child.info("stamped")
        parent = RunLog()
        parent.merge_snapshot(child.snapshot(), worker=4)
        plain, stamped = parent.events
        assert plain.worker == 4  # back-filled
        assert stamped.worker == 7  # preserved

    def test_merge_preserves_seq_and_clock(self):
        child = RunLog()
        child.info("a")
        child.info("b")
        parent = RunLog()
        parent.info("parent-first")
        parent.merge_snapshot(child.snapshot())
        assert [e.seq for e in parent.events] == [0, 0, 1]
        # The child clock is not rebased onto the parent's.
        assert parent.events[1].time_s == child.events[0].time_s


class TestIntrospection:
    def test_by_event_sorted_by_name(self):
        log = RunLog()
        log.info("zeta")
        log.info("alpha")
        log.info("zeta")
        assert log.by_event() == {"alpha": 1, "zeta": 2}

    def test_by_level_sorted_by_severity(self):
        log = RunLog()
        log.error("a")
        log.log("b", level="debug")
        log.warning("c")
        log.warning("d")
        assert list(log.by_level()) == ["debug", "warning", "error"]
        assert log.by_level()["warning"] == 2


class TestAmbientInstall:
    def test_default_is_null_logger(self):
        assert obs.get_logger() is obs.NULL_LOG
        assert not obs.get_logger().enabled

    def test_logging_installs_and_restores(self):
        with obs.logging() as log:
            assert obs.get_logger() is log
            assert log.enabled
        assert obs.get_logger() is obs.NULL_LOG

    def test_logging_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.logging():
                raise RuntimeError("boom")
        assert obs.get_logger() is obs.NULL_LOG


class TestJsonl:
    def test_round_trip(self, tmp_path):
        log = RunLog()
        log.warning("guard.retry", "deadline", cell=1, backoff_s=0.5)
        log.error("guard.quarantine", "gave up", cell=1)
        path = obs.write_jsonl(log, tmp_path / "run.log.jsonl")
        header, events = obs.read_jsonl(path)
        assert header["schema"] == LOG_SCHEMA
        assert header["events"] == 2
        assert header["dropped"] == 0
        assert [e.as_dict() for e in events] == log.snapshot()

    def test_first_line_is_schema_header(self, tmp_path):
        path = obs.write_jsonl(RunLog(), tmp_path / "x.jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema"] == LOG_SCHEMA

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ValueError, match="header"):
            obs.read_jsonl(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            obs.read_jsonl(path)


class TestLogEvent:
    def test_dict_round_trip(self):
        event = LogEvent(
            seq=3,
            time_s=1.5,
            level="warning",
            event="guard.retry",
            message="oom",
            run_id="abc",
            span="guard.cell",
            worker=2,
            fields={"attempt": 1},
        )
        assert LogEvent.from_dict(event.as_dict()) == event

    def test_from_dict_tolerates_missing_keys(self):
        event = LogEvent.from_dict({"event": "x"})
        assert event.event == "x"
        assert event.worker is None
        assert event.fields == {}
