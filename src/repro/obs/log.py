"""Structured run logs: the JSONL event stream (schema ``repro.log/1``).

The tracer answers "when did what happen", metrics answer "how much in
total"; this module answers "what *notable things* occurred" — retries,
quarantines, cache misses, numerics rollbacks, OOMs — as typed events a
machine can filter, not prose on stdout.  A :class:`RunLog` records
:class:`LogEvent` records into a **bounded** buffer; every event carries
the correlation fields of the Dapper model:

* ``run_id`` / ``worker`` — copied from the ambient
  :class:`~repro.obs.context.TraceContext`, so a merged multi-process
  grid log attributes every event to its run and its grid cell;
* ``span`` — the name of the innermost open host span at record time
  (:meth:`~repro.obs.tracer.Tracer.current_span`), correlating log
  lines with the trace timeline.

The API mirrors the tracer exactly: :func:`get_logger` reads the
installed log and :func:`logging` installs one for a ``with`` block; the
default is :data:`NULL_LOG`, a ``RunLog(enabled=False)`` that records
nothing (hot paths guard on ``log.enabled``; the disabled path is
byte-identical and audited by the same null-contract test as the
tracer's); and
``snapshot()``/``merge_snapshot()`` give the cross-process buffer that
travels next to the tracer's in a grid cell's ``side`` dict (pipe
message and journal entry).

On disk, a log is JSON Lines: one header line
``{"schema": "repro.log/1", ...}`` then one event object per line
(:func:`write_jsonl` / :func:`read_jsonl`) — the format
``python -m repro timeline`` joins with a trace.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import ContextManager

from repro.obs.context import Ambient, get_context
from repro.obs.tracer import get_tracer, jsonable

__all__ = [
    "LOG_SCHEMA",
    "LEVELS",
    "LogEvent",
    "RunLog",
    "NULL_LOG",
    "get_logger",
    "logging",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
]

#: The on-disk log schema this module writes and understands.
LOG_SCHEMA = "repro.log/1"

#: Recognised severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "error")


@dataclass
class LogEvent:
    """One structured event: a typed name, correlation ids, and fields.

    ``seq`` is the event's position in the log that *recorded* it (a
    worker's own counter survives the merge, so per-worker order is
    always reconstructible); ``time_s`` is seconds since that log's
    creation.
    """

    seq: int
    time_s: float
    level: str
    event: str
    message: str = ""
    run_id: str = ""
    span: str = ""
    worker: int | None = None
    fields: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": int(self.seq),
            "time_s": float(self.time_s),
            "level": self.level,
            "event": self.event,
            "message": self.message,
            "run_id": self.run_id,
            "span": self.span,
            "worker": self.worker,
            "fields": jsonable(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> LogEvent:
        return cls(
            seq=int(data.get("seq", 0)),
            time_s=float(data.get("time_s", 0.0)),
            level=data.get("level", "info"),
            event=data.get("event", ""),
            message=data.get("message", ""),
            run_id=data.get("run_id", ""),
            span=data.get("span", ""),
            worker=data.get("worker"),
            fields=dict(data.get("fields", {})),
        )


#: Events a :class:`RunLog` buffers before it starts counting drops.
MAX_EVENTS = 10_000


class RunLog:
    """Records structured events; cheap enough to thread everywhere.

    The buffer is bounded (:data:`MAX_EVENTS`): once full, further events
    are counted in :attr:`dropped` instead of growing memory without
    limit inside a long worker — the cap is always visible in the
    manifest ``logs`` section, never silent.

    With ``enabled=False`` (the :data:`NULL_LOG` singleton) :meth:`log`
    and :meth:`merge_snapshot` return early, so the log never holds
    state.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[LogEvent] = []
        self.dropped = 0
        self._origin = time.perf_counter()
        self._seq = 0

    def now(self) -> float:
        """Seconds since this log was created."""
        if not self.enabled:
            return 0.0
        return time.perf_counter() - self._origin

    # -- recording -------------------------------------------------------------

    def log(
        self,
        event: str,
        message: str = "",
        level: str = "info",
        **fields: object,
    ) -> LogEvent | None:
        """Record one event; returns it, or ``None`` when dropped.

        Correlation fields are stamped from the ambient trace context
        and the ambient tracer's open span at call time.
        """
        if not self.enabled:
            return None
        if len(self.events) >= MAX_EVENTS:
            self.dropped += 1
            return None
        ctx = get_context()
        span = get_tracer().current_span()
        record = LogEvent(
            seq=self._seq,
            time_s=self.now(),
            level=level,
            event=event,
            message=message,
            run_id=ctx.run_id,
            span=span.name if span is not None else "",
            worker=ctx.worker,
            fields=dict(fields),
        )
        self._seq += 1
        self.events.append(record)
        return record

    def info(self, event: str, message: str = "", **fields) -> LogEvent | None:
        return self.log(event, message, level="info", **fields)

    def warning(self, event: str, message: str = "", **fields) -> LogEvent | None:
        return self.log(event, message, level="warning", **fields)

    def error(self, event: str, message: str = "", **fields) -> LogEvent | None:
        return self.log(event, message, level="error", **fields)

    # -- cross-process buffers -------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every event as a JSON-ready dict (the cross-process buffer)."""
        return [event.as_dict() for event in self.events]

    def merge_snapshot(
        self, events: list[dict], worker: int | None = None
    ) -> None:
        """Fold another log's :meth:`snapshot` into this one.

        Events keep their own ``seq``/``time_s`` (the recording log's
        clock); *worker* back-fills the worker field on events that
        lack one, so buffers merged by the grid runners are always
        attributable to their cell even if the child had no context.
        """
        if not self.enabled:
            return
        for data in events:
            record = LogEvent.from_dict(data)
            if worker is not None and record.worker is None:
                record.worker = worker
            self.events.append(record)

    # -- introspection ---------------------------------------------------------

    def by_event(self) -> dict[str, int]:
        """Event-name -> occurrence count (sorted by name)."""
        counts: dict[str, int] = {}
        for record in self.events:
            counts[record.event] = counts.get(record.event, 0) + 1
        return dict(sorted(counts.items()))

    def by_level(self) -> dict[str, int]:
        """Severity -> occurrence count (sorted by severity order)."""
        counts: dict[str, int] = {}
        for record in self.events:
            counts[record.level] = counts.get(record.level, 0) + 1
        known = [lvl for lvl in LEVELS if lvl in counts]
        other = sorted(set(counts) - set(LEVELS))
        return {lvl: counts[lvl] for lvl in known + other}


#: The module-level singleton installed when structured logging is off.
NULL_LOG = RunLog(enabled=False)

_LOG: Ambient[RunLog] = Ambient(NULL_LOG)

#: The currently installed run log (the null logger by default).
get_logger = _LOG.get


def logging(log: RunLog | None = None) -> ContextManager[RunLog]:
    """Install a run log for the duration of a ``with`` block.

    Creates a fresh :class:`RunLog` unless one is supplied; restores
    the previously installed log on exit (exception-safe), mirroring
    :func:`repro.obs.tracer.tracing`.
    """
    return _LOG.use(log if log is not None else RunLog())


# -- JSONL round trip ----------------------------------------------------------


def to_jsonl(log: RunLog) -> str:
    """Render *log* as JSON Lines: one header line, one line per event."""
    header = {
        "schema": LOG_SCHEMA,
        "events": len(log.events),
        "dropped": log.dropped,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(event.as_dict(), sort_keys=True) for event in log.events
    )
    return "\n".join(lines) + "\n"


def write_jsonl(log: RunLog, path: str | pathlib.Path) -> pathlib.Path:
    """Write the JSONL log to *path* and return it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_jsonl(log))
    return path


def read_jsonl(path: str | pathlib.Path) -> tuple[dict, list[LogEvent]]:
    """Read a ``repro.log/1`` JSONL file back as ``(header, events)``.

    Raises :class:`ValueError` on a missing/foreign header so a stray
    file is never silently misread as a log.
    """
    path = pathlib.Path(path)
    lines = [
        line for line in path.read_text().splitlines() if line.strip()
    ]
    if not lines:
        raise ValueError(f"log file {path} is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != LOG_SCHEMA:
        raise ValueError(
            f"log file {path} has no {LOG_SCHEMA!r} header line"
        )
    return header, [LogEvent.from_dict(json.loads(line)) for line in lines[1:]]
