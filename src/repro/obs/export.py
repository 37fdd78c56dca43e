"""Trace exporters: Chrome ``trace_event`` JSON and a text flame summary.

The Chrome format is the one PopVision/Perfetto-class tools speak: a flat
``traceEvents`` list of complete (``ph: "X"``) events with microsecond
timestamps, counter (``ph: "C"``) events, and metadata naming the tracks.
Load the written file in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import fnmatch
import json
import pathlib

from repro.obs.tracer import Tracer, jsonable as _jsonable

__all__ = ["to_chrome_trace", "write_chrome_trace", "flame_summary"]

#: Span-name rows :func:`flame_summary` prints per track (heaviest first;
#: the cut is announced, never silent).
FLAME_ROWS = 40

_PID = 1


def to_chrome_trace(tracer: Tracer) -> dict:
    """Render *tracer* as a Chrome ``trace_event`` document (a dict)."""
    tids = {track: i for i, track in enumerate(tracer.tracks())}
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category or "default",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": _PID,
                "tid": tids[span.track],
                "args": _jsonable(span.attributes),
            }
        )
    for counter in tracer.counters:
        events.append(
            {
                "ph": "C",
                "name": counter.name,
                "ts": counter.time_s * 1e6,
                "pid": _PID,
                "tid": tids[counter.track],
                "args": _jsonable(counter.values),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracer: Tracer, path: str | pathlib.Path
) -> pathlib.Path:
    """Write the Chrome trace JSON to *path* and return it."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer), indent=1) + "\n")
    return path


def _format_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e9:.1f} ns"


def flame_summary(tracer: Tracer, track: str | None = None) -> str:
    """Aggregate spans by name per track, heaviest first.

    The text analogue of a flame graph's top table: for each track, every
    span name with its call count, total/mean time and share of the
    track's top-level time.  *track* restricts the summary to tracks
    matching a glob pattern (``cell3/*``, ``*/ipu``) — the way to keep a
    merged multi-worker grid trace readable; rows carry their track name
    so filtered and merged views stay self-describing.
    """
    lines: list[str] = []
    selected = [
        name
        for name in tracer.tracks()
        if track is None or fnmatch.fnmatchcase(name, track)
    ]
    for name in selected:
        spans = tracer.spans_on(name)
        if not spans:
            continue
        track_label = name
        top_level_total = sum(
            s.duration_s for s in spans if s.depth == 0
        ) or sum(s.duration_s for s in spans)
        totals: dict[str, list[float]] = {}
        for span in spans:
            bucket = totals.setdefault(span.name, [0.0, 0.0])
            bucket[0] += span.duration_s
            bucket[1] += 1
        ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
        lines.append(f"[{track_label}] total {_format_s(top_level_total)}")
        header = f"  {'span':<40s} {'calls':>6s} {'total':>12s} " \
                 f"{'mean':>12s} {'share':>7s}  track"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for span_name, (total, calls) in ranked[:FLAME_ROWS]:
            share = total / top_level_total if top_level_total > 0 else 0.0
            lines.append(
                f"  {span_name[:40]:<40s} {int(calls):>6d} "
                f"{_format_s(total):>12s} "
                f"{_format_s(total / calls):>12s} {share:>6.1%}"
                f"  {track_label}"
            )
        if len(ranked) > FLAME_ROWS:
            # No-silent-caps: capped output must say it is capped.
            lines.append(
                f"  … and {len(ranked) - FLAME_ROWS} more rows "
                f"(of {len(ranked)}; narrow it with a track pattern)"
            )
        lines.append("")
    if not lines and track is not None:
        return f"(no tracks match {track!r})"
    return "\n".join(lines).rstrip("\n") or "(empty trace)"
