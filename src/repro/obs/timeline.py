"""The unified timeline report: one self-contained HTML file per run.

``python -m repro timeline <trace.json|manifest.json>`` joins the three
observability streams — the merged multi-track span timeline, metric
snapshots, and structured log events — on one time axis in a single
HTML document with **no network dependencies**: inline CSS, no
JavaScript, no fonts or CDN links, so the artifact a CI job uploads
renders identically offline and years later.

Two input shapes are understood:

* a Chrome ``trace_event`` JSON written by
  :func:`repro.obs.export.write_chrome_trace` —
  :func:`spans_from_chrome_trace` rebuilds the span/counter records
  (recovering nesting depth per track by interval containment), and the
  timeline shows every track, with grid-cell tracks (``cell3/host``,
  ``cell3/ipu``) grouped under their cell;
* a ``repro.run/1`` manifest — no raw spans survive in a manifest, so
  the ``hot_spans`` aggregates are rendered as sequential per-track
  bars plus the metric and log-summary tables.

A sibling ``repro.log/1`` JSONL (``--log``, or auto-detected next to
the input) contributes the log lane: one tick per event on the time
axis plus the event table with run/span/worker correlation fields.

Times are *relative* seconds on each recorder's own clock (worker span
buffers are merged without re-basing — see
:meth:`~repro.obs.tracer.Tracer.merge_snapshot`), so tracks from
different processes share a scale but not a wall-clock origin; the
header says so rather than implying false precision.
"""

from __future__ import annotations

import hashlib
import html
import pathlib

from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.tracer import CounterRecord, SpanRecord, Tracer
from repro.utils import format_seconds

__all__ = [
    "spans_from_chrome_trace",
    "spans_from_manifest",
    "render_timeline_html",
    "write_timeline_html",
    "write_trace_and_timeline",
]

#: Per-track span cap in the rendered HTML (longest-first; the cut is
#: announced in the track header — never silent).
MAX_SPANS_PER_TRACK = 1500

#: Log-event table cap (earliest-first; the cut is announced).
MAX_LOG_ROWS = 500

_ROW_PX = 16  # height of one nesting level in a track lane


def spans_from_chrome_trace(doc: dict) -> tuple[list[SpanRecord], list[CounterRecord]]:
    """Rebuild span/counter records from a Chrome ``trace_event`` dict.

    The inverse of :func:`repro.obs.export.to_chrome_trace`: ``M``
    metadata events name the tracks, ``X`` events become spans, ``C``
    events become counters.  Nesting depth is not stored in the Chrome
    format, so it is recovered per track by interval containment —
    spans sorted by (start, -duration), a span's depth is the number of
    still-open enclosing intervals.
    """
    tracks: dict[int, str] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            tracks[event.get("tid", 0)] = event.get("args", {}).get(
                "name", f"tid{event.get('tid', 0)}"
            )
    spans: list[SpanRecord] = []
    counters: list[CounterRecord] = []
    for event in doc.get("traceEvents", ()):
        ph = event.get("ph")
        track = tracks.get(event.get("tid", 0), f"tid{event.get('tid', 0)}")
        if ph == "X":
            spans.append(
                SpanRecord(
                    name=event.get("name", ""),
                    category=event.get("cat", ""),
                    track=track,
                    start_s=float(event.get("ts", 0.0)) / 1e6,
                    duration_s=float(event.get("dur", 0.0)) / 1e6,
                    attributes=dict(event.get("args", {})),
                )
            )
        elif ph == "C":
            counters.append(
                CounterRecord(
                    name=event.get("name", ""),
                    track=track,
                    time_s=float(event.get("ts", 0.0)) / 1e6,
                    values=dict(event.get("args", {})),
                )
            )
    _recover_depths(spans)
    return spans, counters


def _recover_depths(spans: list[SpanRecord]) -> None:
    """Assign nesting depths per track by interval containment."""
    by_track: dict[str, list[SpanRecord]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)
    for members in by_track.values():
        members.sort(key=lambda s: (s.start_s, -s.duration_s))
        open_ends: list[float] = []  # end time per open nesting level
        for span in members:
            # A tiny tolerance absorbs float noise from the us round trip.
            eps = 1e-9 + 1e-6 * span.duration_s
            while open_ends and open_ends[-1] <= span.start_s + eps:
                open_ends.pop()
            span.depth = len(open_ends)
            open_ends.append(span.end_s)


def spans_from_manifest(manifest: dict) -> list[SpanRecord]:
    """Aggregate bars from a manifest's ``hot_spans`` section.

    Manifests carry only (track, name, total, calls) aggregates, so the
    bars are laid end-to-end per track in ranking order — a span-length
    comparison, not a replay of real timing.
    """
    cursors: dict[str, float] = {}
    spans = []
    for entry in manifest.get("hot_spans", ()):
        track = entry.get("track", "host")
        start = cursors.get(track, 0.0)
        spans.append(
            SpanRecord(
                name=entry.get("name", ""),
                category="aggregate",
                track=track,
                start_s=start,
                duration_s=float(entry.get("total_s", 0.0)),
                attributes={"calls": entry.get("calls", 0)},
            )
        )
        cursors[track] = start + float(entry.get("total_s", 0.0))
    return spans


# -- rendering -----------------------------------------------------------------

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; margin-bottom: 0.2em; }
h2 { font-size: 1.05em; margin: 1.4em 0 0.4em; }
.meta { color: #666; margin-bottom: 1em; }
.axis { position: relative; height: 18px; border-bottom: 1px solid #bbb;
        margin: 0.6em 0 0.2em; }
.axis span { position: absolute; transform: translateX(-50%);
             color: #666; font-size: 11px; }
.track { margin: 0.35em 0; }
.track .label { color: #444; font-size: 12px; margin-bottom: 1px; }
.track .note { color: #a40; font-size: 11px; }
.lane { position: relative; background: #f7f7f7; border-radius: 2px; }
.span { position: absolute; height: 14px; border-radius: 2px;
        overflow: hidden; white-space: nowrap; font-size: 10px;
        color: #fff; padding: 0 2px; box-sizing: border-box; }
.tick { position: absolute; width: 2px; height: 14px; top: 0; }
table { border-collapse: collapse; margin: 0.4em 0; }
th, td { text-align: left; padding: 2px 10px 2px 0; font-size: 12px;
         border-bottom: 1px solid #eee; vertical-align: top; }
th { color: #555; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.lvl-debug { background: #8a8a8a; } .lvl-info { background: #2a7ae2; }
.lvl-warning { background: #e2a52a; } .lvl-error { background: #d43f3f; }
.trunc { color: #a40; font-size: 11px; }
"""


def _category_color(category: str) -> str:
    """A stable, readable color per span category (hash -> HSL hue)."""
    digest = hashlib.blake2b(
        (category or "default").encode(), digest_size=2
    ).hexdigest()
    hue = int(digest, 16) % 360
    return f"hsl({hue}, 55%, 45%)"


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _axis(t0: float, t1: float) -> str:
    """Five evenly spaced time labels across the shared axis."""
    marks = []
    for i in range(6):
        t = t0 + (t1 - t0) * i / 5
        left = i / 5 * 100
        marks.append(
            f'<span style="left:{left:.2f}%">{_esc(format_seconds(t))}</span>'
        )
    return f'<div class="axis">{"".join(marks)}</div>'


def _track_order(spans, counters, events) -> list[str]:
    """Host first, then first appearance — matches ``Tracer.tracks()``."""
    seen: dict[str, None] = {}
    for span in spans:
        seen.setdefault(span.track, None)
    for counter in counters:
        seen.setdefault(counter.track, None)
    ordered = list(seen)
    if "host" in ordered:
        ordered.remove("host")
        ordered.insert(0, "host")
    return ordered


def _render_track(track, spans, t0, span_s, max_spans) -> list[str]:
    out = []
    shown = spans
    note = ""
    if len(spans) > max_spans:
        shown = sorted(spans, key=lambda s: -s.duration_s)[:max_spans]
        shown.sort(key=lambda s: (s.start_s, -s.duration_s))
        note = (
            f' <span class="note">(showing the {max_spans} longest of '
            f"{len(spans)} spans)</span>"
        )
    depth = max((s.depth for s in shown), default=0)
    total = sum(s.duration_s for s in shown if s.depth == 0)
    out.append('<div class="track">')
    out.append(
        f'<div class="label">{_esc(track)} — {len(spans)} spans, '
        f"{_esc(format_seconds(total))} top-level{note}</div>"
    )
    out.append(
        f'<div class="lane" style="height:{(depth + 1) * _ROW_PX}px">'
    )
    for span in shown:
        left = (span.start_s - t0) / span_s * 100
        width = max(span.duration_s / span_s * 100, 0.08)
        attrs = ", ".join(f"{k}={v}" for k, v in span.attributes.items())
        tip = (
            f"{span.name} — {format_seconds(span.duration_s)} "
            f"[{span.category or 'default'}] @ {format_seconds(span.start_s)}"
            + (f" | {attrs}" if attrs else "")
        )
        out.append(
            f'<div class="span" title="{_esc(tip)}" '
            f'style="left:{left:.3f}%;width:{width:.3f}%;'
            f"top:{span.depth * _ROW_PX}px;"
            f'background:{_category_color(span.category)}">'
            f"{_esc(span.name)}</div>"
        )
    out.append("</div></div>")
    return out


def _render_log_lane(events, t0, span_s) -> list[str]:
    out = ['<div class="track">']
    out.append(
        f'<div class="label">log events — {len(events)} on this axis</div>'
    )
    out.append(f'<div class="lane" style="height:{_ROW_PX}px">')
    for event in events:
        left = (event.time_s - t0) / span_s * 100
        tip = (
            f"[{event.level}] {event.event} @ "
            f"{format_seconds(event.time_s)}"
            + (f" — {event.message}" if event.message else "")
            + (f" | span={event.span}" if event.span else "")
            + (f" | worker={event.worker}" if event.worker is not None else "")
        )
        out.append(
            f'<div class="tick lvl-{_esc(event.level)}" '
            f'title="{_esc(tip)}" style="left:{left:.3f}%"></div>'
        )
    out.append("</div></div>")
    return out


def _render_log_table(events, max_rows) -> list[str]:
    out = ["<h2>Log events</h2>"]
    shown = events[:max_rows]
    out.append("<table><tr><th>time</th><th>level</th><th>event</th>")
    out.append("<th>message</th><th>span</th><th>worker</th>")
    out.append("<th>run</th><th>fields</th></tr>")
    for event in shown:
        fields = ", ".join(f"{k}={v}" for k, v in event.fields.items())
        out.append(
            "<tr>"
            f'<td class="num">{_esc(format_seconds(event.time_s))}</td>'
            f"<td>{_esc(event.level)}</td><td>{_esc(event.event)}</td>"
            f"<td>{_esc(event.message)}</td><td>{_esc(event.span)}</td>"
            f'<td class="num">'
            f"{'' if event.worker is None else event.worker}</td>"
            f"<td>{_esc(event.run_id)}</td><td>{_esc(fields)}</td></tr>"
        )
    out.append("</table>")
    if len(events) > max_rows:
        out.append(
            f'<p class="trunc">… and {len(events) - max_rows} more events '
            f"(of {len(events)}; see the JSONL log for all)</p>"
        )
    return out


def _render_metrics(metrics) -> list[str]:
    out = ["<h2>Metrics</h2>"]
    out.append("<table><tr><th>metric</th><th>type</th><th>value</th></tr>")
    for entry in metrics:
        labels = entry.get("labels") or {}
        name = entry.get("name", "?") + (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        if entry.get("type") == "histogram":
            value = f"count={entry.get('count', 0)} sum={entry.get('sum', 0):.6g}"
        else:
            value = f"{entry.get('value', 0):.6g}"
        out.append(
            f"<tr><td>{_esc(name)}</td><td>{_esc(entry.get('type', '?'))}</td>"
            f'<td class="num">{_esc(value)}</td></tr>'
        )
    out.append("</table>")
    return out


def render_timeline_html(
    spans: list[SpanRecord],
    counters: list[CounterRecord] = (),
    events: list = (),
    metrics: list | None = None,
    title: str = "repro timeline",
    subtitle: str = "",
) -> str:
    """Render the unified timeline as one self-contained HTML document.

    *events* are :class:`~repro.obs.log.LogEvent` records (the log
    lane + table); *metrics* a manifest-style snapshot list.  Per-track
    spans beyond :data:`MAX_SPANS_PER_TRACK` keep only the longest (the
    track header says how many were cut); the log table is capped at
    :data:`MAX_LOG_ROWS` likewise.
    """
    times = (
        [s.start_s for s in spans]
        + [s.end_s for s in spans]
        + [c.time_s for c in counters]
        + [e.time_s for e in events]
    )
    t0 = min(times, default=0.0)
    t1 = max(times, default=1.0)
    span_s = (t1 - t0) or 1.0

    out = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        '<p class="meta">'
        + (f"{_esc(subtitle)} · " if subtitle else "")
        + f"{len(spans)} spans · {len(counters)} counters · "
        + f"{len(events)} log events · axis "
        + f"{_esc(format_seconds(t0))} – {_esc(format_seconds(t1))} "
        + "(relative seconds on each recorder's clock; cross-process "
        + "tracks are not wall-clock aligned)</p>",
        "<h2>Timeline</h2>",
        _axis(t0, t1),
    ]
    by_track: dict[str, list[SpanRecord]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)
    for track in _track_order(spans, counters, events):
        out.extend(
            _render_track(
                track,
                by_track.get(track, []),
                t0,
                span_s,
                MAX_SPANS_PER_TRACK,
            )
        )
    if events:
        out.extend(_render_log_lane(events, t0, span_s))
        out.extend(_render_log_table(events, MAX_LOG_ROWS))
    if metrics:
        out.extend(_render_metrics(metrics))
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def write_timeline_html(
    html_text: str, path: str | pathlib.Path
) -> pathlib.Path:
    """Write the rendered timeline to *path* and return it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(html_text)
    return path


def write_trace_and_timeline(
    tracer: Tracer,
    out_dir: str | pathlib.Path,
    name: str,
    title: str,
    subtitle: str,
    events: list = (),
) -> tuple[pathlib.Path, pathlib.Path]:
    """Write ``NAME.trace.json`` and ``NAME.timeline.html`` into *out_dir*.

    The timeline is rendered from the trace round-tripped through the
    Chrome format, so it is exactly what ``python -m repro timeline
    NAME.trace.json`` would render; *events* are the log events of its
    log lane.  Returns ``(trace_path, timeline_path)``.
    """
    out_dir = pathlib.Path(out_dir)
    trace_path = write_chrome_trace(tracer, out_dir / f"{name}.trace.json")
    spans, counters = spans_from_chrome_trace(to_chrome_trace(tracer))
    timeline_path = write_timeline_html(
        render_timeline_html(
            spans, counters, events=events, title=title, subtitle=subtitle
        ),
        out_dir / f"{name}.timeline.html",
    )
    return trace_path, timeline_path
