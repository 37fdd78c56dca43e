"""The tracer: nested spans and counters on host and virtual timelines.

Two kinds of track coexist in one trace:

* the **host** track records wall-clock intervals, measured with
  :func:`time.perf_counter` by the :meth:`Tracer.span` context manager
  (compilation phases, training epochs/steps, cache lookups);
* **virtual** tracks record *simulated* time: the IPU executor and the
  GPU kernel models place spans with explicit durations from their cost
  models via :meth:`Tracer.add_span`, each track keeping its own cursor
  so successive program steps abut exactly.

All timestamps are seconds relative to the tracer's creation (host) or
to zero (virtual), which keeps the exported Chrome trace timeline dense.

Instrumented code reads the installed tracer with :func:`get_tracer`;
:func:`tracing` installs one for a ``with`` block (an
:class:`~repro.obs.context.Ambient` slot), and the default is
:data:`NULL_TRACER`, a ``Tracer(enabled=False)`` whose recording
methods return before touching any state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ContextManager, Iterator

from repro.obs.context import Ambient

__all__ = [
    "SpanRecord",
    "CounterRecord",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "tracing",
    "jsonable",
]

#: The track name used for wall-clock spans.
HOST_TRACK = "host"


def jsonable(value: object) -> object:
    """Coerce a value (numpy scalars included) to plain JSON types.

    Span attributes, counter samples and log-event fields cross process
    and file boundaries (pipe messages, journal entries, JSONL logs), so
    they are normalised to JSON scalars/lists/dicts at snapshot time.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    for caster in (int, float):
        try:
            cast = caster(value)  # numpy integer / floating
        except (TypeError, ValueError):
            continue
        if cast == value:
            return cast
    return str(value)


@dataclass
class SpanRecord:
    """One completed span: a named interval on one track."""

    name: str
    category: str
    track: str
    start_s: float
    duration_s: float
    depth: int = 0
    attributes: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def as_dict(self) -> dict:
        """JSON-ready form (the unit of the cross-process span buffer)."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "start_s": float(self.start_s),
            "duration_s": float(self.duration_s),
            "depth": int(self.depth),
            "attributes": jsonable(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> SpanRecord:
        return cls(
            name=data["name"],
            category=data.get("category", ""),
            track=data.get("track", HOST_TRACK),
            start_s=float(data.get("start_s", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            depth=int(data.get("depth", 0)),
            attributes=dict(data.get("attributes", {})),
        )


@dataclass(frozen=True)
class CounterRecord:
    """A named sample of one or more numeric series at a point in time."""

    name: str
    track: str
    time_s: float
    values: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "track": self.track,
            "time_s": float(self.time_s),
            "values": jsonable(self.values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> CounterRecord:
        return cls(
            name=data["name"],
            track=data.get("track", HOST_TRACK),
            time_s=float(data.get("time_s", 0.0)),
            values=dict(data.get("values", {})),
        )


class Tracer:
    """Records spans and counters; cheap enough to thread everywhere.

    With ``enabled=False`` (the :data:`NULL_TRACER` singleton) every
    recording method returns early, so the tracer never holds state and
    its read methods give the empty answers.  Hot loops additionally
    guard on :attr:`enabled`, so the disabled path costs one attribute
    check per iteration.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[SpanRecord] = []
        self.counters: list[CounterRecord] = []
        self._origin = time.perf_counter()
        self._host_stack: list[SpanRecord] = []
        self._cursors: dict[str, float] = {}

    # -- wall-clock spans ------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer was created."""
        if not self.enabled:
            return 0.0
        return time.perf_counter() - self._origin

    def span(
        self, name: str, category: str = "host", **attributes: object
    ) -> ContextManager[SpanRecord]:
        """Measure a wall-clock interval on the host track.

        Yields the (mutable) record so callers can attach attributes
        discovered during the span.  Nesting depth follows the dynamic
        call structure.
        """
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return self._span(name, category, attributes)

    @contextmanager
    def _span(
        self, name: str, category: str, attributes: dict
    ) -> Iterator[SpanRecord]:
        record = SpanRecord(
            name=name,
            category=category,
            track=HOST_TRACK,
            start_s=self.now(),
            duration_s=0.0,
            depth=len(self._host_stack),
            attributes=dict(attributes),
        )
        self._host_stack.append(record)
        try:
            yield record
        finally:
            record.duration_s = self.now() - record.start_s
            self._host_stack.pop()
            self.spans.append(record)

    # -- virtual (simulated-time) spans ---------------------------------------

    def cursor(self, track: str) -> float:
        """Current end-of-timeline position of a virtual track."""
        return self._cursors.get(track, 0.0)

    def add_span(
        self,
        name: str,
        duration_s: float,
        track: str,
        category: str = "sim",
        start_s: float | None = None,
        depth: int = 0,
        **attributes: object,
    ) -> SpanRecord:
        """Place a span with an explicit duration on a virtual track.

        Without ``start_s`` the span is appended at the track cursor; the
        cursor only advances for top-level (``depth == 0``) spans, so
        nested phase spans can be placed inside their parent's interval.
        """
        if not self.enabled:
            return _NULL_SPAN_CONTEXT.__enter__()
        start = self.cursor(track) if start_s is None else start_s
        record = SpanRecord(
            name=name,
            category=category,
            track=track,
            start_s=start,
            duration_s=duration_s,
            depth=depth,
            attributes=dict(attributes),
        )
        self.spans.append(record)
        if depth == 0:
            self._cursors[track] = max(
                self.cursor(track), start + duration_s
            )
        return record

    # -- counters --------------------------------------------------------------

    def counter(
        self,
        name: str,
        values: dict | float,
        track: str = HOST_TRACK,
        time_s: float | None = None,
    ) -> None:
        """Sample one or more numeric series.

        A bare float is recorded as series ``{"value": x}``.  The sample
        time defaults to "now": wall clock on the host track, the track
        cursor on virtual tracks.
        """
        if not self.enabled:
            return
        if not isinstance(values, dict):
            values = {"value": float(values)}
        if time_s is None:
            time_s = self.now() if track == HOST_TRACK else self.cursor(track)
        self.counters.append(
            CounterRecord(name=name, track=track, time_s=time_s, values=values)
        )

    # -- cross-process buffers -------------------------------------------------

    def current_span(self) -> SpanRecord | None:
        """The innermost still-open host span, or ``None``.

        The structured log (:mod:`repro.obs.log`) stamps this span's
        name onto events so log lines correlate with the span tree.
        """
        return self._host_stack[-1] if self._host_stack else None

    def snapshot(self) -> dict:
        """The whole trace as one JSON-/pickle-ready buffer.

        This is what a grid worker ships back over its result pipe (and
        what the guard journal persists per cell): every span and
        counter as plain dicts.  :meth:`merge_snapshot` is the inverse.
        """
        return {
            "spans": [span.as_dict() for span in self.spans],
            "counters": [c.as_dict() for c in self.counters],
        }

    def merge_snapshot(self, snapshot: dict, prefix: str | None = None) -> None:
        """Fold another tracer's :meth:`snapshot` into this one.

        With *prefix*, every merged record's track is remapped to
        ``{prefix}/{track}`` — the grid runners use the cell's
        :func:`~repro.obs.context.worker_track` so each cell's spans
        land on their own track group in the merged timeline.  Merged
        span times keep the **worker's** clock origin (they are not
        re-based onto the parent's wall clock), which is what makes a
        ``--resume`` replay of journalled buffers bit-identical to the
        live run that produced them.  Track cursors advance past the
        merged spans so later virtual spans never overlap them.
        """
        if not (self.enabled and snapshot):
            return
        for data in snapshot.get("spans", ()):
            record = SpanRecord.from_dict(data)
            if prefix:
                record.track = f"{prefix}/{record.track}"
            self.spans.append(record)
            if record.depth == 0:
                self._cursors[record.track] = max(
                    self.cursor(record.track), record.end_s
                )
        for data in snapshot.get("counters", ()):
            counter = CounterRecord.from_dict(data)
            if prefix:
                counter = CounterRecord(
                    name=counter.name,
                    track=f"{prefix}/{counter.track}",
                    time_s=counter.time_s,
                    values=counter.values,
                )
            self.counters.append(counter)

    # -- introspection ---------------------------------------------------------

    def tracks(self) -> list[str]:
        """All track names, host first, in order of first appearance."""
        seen: dict[str, None] = {HOST_TRACK: None}
        for record in self.spans:
            seen.setdefault(record.track, None)
        for record in self.counters:
            seen.setdefault(record.track, None)
        return list(seen)

    def spans_on(self, track: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.track == track]


class _NullSpanContext:
    """Reusable no-op context manager; yields a throwaway record."""

    __slots__ = ()

    def __enter__(self) -> SpanRecord:
        return SpanRecord(
            name="", category="", track="", start_s=0.0, duration_s=0.0
        )

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


#: The module-level singleton installed when tracing is off.
NULL_TRACER = Tracer(enabled=False)

_TRACER: Ambient[Tracer] = Ambient(NULL_TRACER)

#: The currently installed tracer (the null tracer by default).
get_tracer = _TRACER.get


def tracing(tracer: Tracer | None = None) -> ContextManager[Tracer]:
    """Install a tracer for the duration of a ``with`` block.

    Creates a fresh :class:`Tracer` unless one is supplied; restores the
    previously installed tracer on exit (exception-safe), so traced
    regions can nest.
    """
    return _TRACER.use(tracer if tracer is not None else Tracer())
