"""PopVision-style run reports: the versioned ``repro.run/1`` manifest.

A *run manifest* is one JSON document describing one run: host info,
seed, config, the metric registry's snapshot, the top-k hottest trace
spans, a structured-log summary, and whatever further sections the
caller built.  Each further section is built by the package that owns
its input (``memory`` and ``liveness`` by :mod:`repro.ipu`, ``cache`` by
:mod:`repro.cache`, ``guard`` by :mod:`repro.guard`, ``verify`` by
:mod:`repro.verify`, ``serve`` by :mod:`repro.serve`), so this module
imports nothing above :mod:`repro.obs` and :mod:`repro.utils`, and
``python -m repro report FILE`` renders any manifest without importing
the packages that produced it.  Manifests are what the perf trajectory
is made of: every benchmark run writes one next to its ``.txt``
artefact, and :mod:`repro.obs.regress` diffs two of them with
per-metric tolerances.

Schema ``repro.run/1`` — field table in docs/OBSERVABILITY.md.  The CLI
entry points are ``python -m repro report <manifest>`` (render) and
``python -m repro report --smoke`` (run the deterministic workload of
:mod:`repro.experiments.smoke` and write its manifest, the CI baseline
generator).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys

from repro.obs.log import LOG_SCHEMA, RunLog
from repro.obs.metrics import MetricRegistry, get_registry
from repro.obs.tracer import Tracer, get_tracer
from repro.utils import format_bytes, format_seconds

__all__ = [
    "SCHEMA",
    "TOP_K",
    "ManifestError",
    "build_manifest",
    "logs_section",
    "hot_spans",
    "write_manifest",
    "read_manifest",
    "render_report",
]

#: The manifest schema this module writes and understands.
SCHEMA = "repro.run/1"

#: How many (track, span-name) aggregates a manifest's ``hot_spans`` keeps.
TOP_K = 20


class ManifestError(ValueError):
    """A manifest file is missing, malformed, or of an unknown schema."""


def _host_info() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argv0": pathlib.Path(sys.argv[0]).name if sys.argv else "",
    }


def logs_section(log: RunLog) -> dict:
    """The structured-log section of a manifest.

    Counts only — event timestamps are wall clock, so including them
    would break the ``--jobs 4`` vs ``--jobs 1`` manifest bit-identity
    the determinism tests assert; the full event stream lives in the
    sibling ``repro.log/1`` JSONL file.
    """
    return {
        "schema": LOG_SCHEMA,
        "events": len(log.events),
        "dropped": int(log.dropped),
        "by_level": log.by_level(),
        "by_event": log.by_event(),
    }


def hot_spans(tracer: Tracer) -> list[dict]:
    """The :data:`TOP_K` heaviest (track, span-name) aggregates of a trace."""
    totals: dict[tuple[str, str], list[float]] = {}
    for span in tracer.spans:
        bucket = totals.setdefault((span.track, span.name), [0.0, 0])
        bucket[0] += span.duration_s
        bucket[1] += 1
    ranked = sorted(
        totals.items(), key=lambda kv: (-kv[1][0], kv[0])
    )
    return [
        {
            "track": track,
            "name": name,
            "total_s": total,
            "calls": int(calls),
        }
        for (track, name), (total, calls) in ranked[:TOP_K]
    ]


def build_manifest(
    name: str,
    registry: MetricRegistry | None = None,
    tracer: Tracer | None = None,
    config: dict | None = None,
    seed: int | None = None,
    log: RunLog | None = None,
    sections: dict[str, dict | None] | None = None,
) -> dict:
    """Join metrics, trace and prebuilt sections into one ``repro.run/1`` dict.

    *registry*/*tracer* default to the process-global instances.  *log*
    is a :class:`~repro.obs.log.RunLog`; an enabled one contributes a
    ``logs`` section (absent when logging is off, so disabled-path
    manifests are byte-identical to before).  *sections* maps further
    section names to already-built dicts, carried verbatim; a None value
    contributes nothing (e.g. :func:`repro.cache.cache_section` of a
    disabled cache).
    """
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    manifest = {
        "schema": SCHEMA,
        "name": name,
        "host": _host_info(),
        "seed": seed,
        "config": dict(config) if config else {},
        "metrics": registry.snapshot(),
        "hot_spans": hot_spans(tracer),
        "trace": {
            "n_spans": len(tracer.spans),
            "n_counters": len(tracer.counters),
            "tracks": tracer.tracks(),
        },
    }
    if log is not None and log.enabled:
        manifest["logs"] = logs_section(log)
    for key, section in (sections or {}).items():
        if section is not None:
            manifest[key] = section
    return manifest


def write_manifest(manifest: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Write *manifest* as sorted-key JSON to *path* and return it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )
    return path


def read_manifest(path: str | pathlib.Path) -> dict:
    """Read and validate a manifest; raises :class:`ManifestError`."""
    path = pathlib.Path(path)
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or "schema" not in manifest:
        raise ManifestError(f"manifest {path} has no 'schema' field")
    if manifest["schema"] != SCHEMA:
        raise ManifestError(
            f"manifest {path} has schema {manifest['schema']!r}; "
            f"this build understands {SCHEMA!r}"
        )
    return manifest


# -- rendering -----------------------------------------------------------------


def _format_metric_value(entry: dict) -> str:
    name = entry["name"]
    value = entry.get("value", 0.0)
    if name.endswith("_bytes"):
        return format_bytes(value)
    if name.endswith("_s"):
        return format_seconds(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_report(manifest: dict) -> str:
    """Render a manifest as the terminal run report."""
    lines: list[str] = []
    host = manifest.get("host", {})
    lines.append(f"run report: {manifest.get('name', '?')}  [{SCHEMA}]")
    lines.append(
        f"  host: {host.get('platform', '?')}  "
        f"python {host.get('python', '?')}  numpy {host.get('numpy', '?')}"
    )
    if manifest.get("seed") is not None:
        lines.append(f"  seed: {manifest['seed']}")
    if manifest.get("config"):
        cfg = ", ".join(
            f"{k}={v}" for k, v in sorted(manifest["config"].items())
        )
        lines.append(f"  config: {cfg}")
    lines.append("")

    metrics = manifest.get("metrics", [])
    scalars = [m for m in metrics if m["type"] in ("counter", "gauge")]
    histograms = [m for m in metrics if m["type"] == "histogram"]
    if scalars:
        lines.append(f"metrics ({len(scalars)} scalar)")
        for m in scalars:
            label = f"{m['name']}{_render_labels(m['labels'])}"
            lines.append(
                f"  {label:<52s} {m['type']:<7s} "
                f"{_format_metric_value(m):>14s}"
            )
        lines.append("")
    if histograms:
        lines.append(f"histograms ({len(histograms)})")
        for m in histograms:
            label = f"{m['name']}{_render_labels(m['labels'])}"
            mean = m["sum"] / m["count"] if m["count"] else 0.0
            lines.append(
                f"  {label:<52s} count={m['count']:<7d} "
                f"sum={m['sum']:.6g} mean={mean:.6g}"
            )
        lines.append("")

    mem = manifest.get("memory")
    if mem is not None:
        lines.append("per-tile memory")
        lines.append(
            f"  tiles: {mem['n_tiles']}  "
            f"usable/tile: {format_bytes(mem['usable_tile_bytes'])}  "
            f"fits: {'yes' if mem['fits'] else 'NO'}"
        )
        lines.append(
            f"  total: {format_bytes(mem['total_bytes'])}  "
            f"peak tile: {format_bytes(mem['peak_tile_bytes'])}  "
            f"free: {format_bytes(mem['free_bytes'])}"
        )
        if mem.get("planned"):
            lines.append(
                f"  planned peak: "
                f"{format_bytes(mem['peak_planned_bytes'])}  "
                f"no-reuse peak: "
                f"{format_bytes(mem['no_reuse_peak_tile_bytes'])}  "
                f"reclaimed: {mem['plan_saving_fraction']:.0%}"
            )
        for key, nbytes in mem["breakdown"].items():
            lines.append(f"    {key:<18s} {format_bytes(nbytes):>12s}")
        hist = mem["per_tile_histogram"]
        occupied = [
            (edge, count)
            for edge, count in zip(
                list(hist["edges"]) + [float("inf")],
                hist["bucket_counts"],
            )
            if count
        ]
        lines.append("  per-tile byte distribution (bucket <= edge):")
        for edge, count in occupied:
            edge_s = (
                "inf" if edge == float("inf") else format_bytes(edge)
            )
            lines.append(f"    <= {edge_s:>10s}  {count:>6d} tiles")
        lines.append("")

    cache = manifest.get("cache")
    if cache is not None:
        lines.append("compilation cache")
        lines.append(
            f"  hits: {cache['hits']}  misses: {cache['misses']}  "
            f"stores: {cache['stores']}  evictions: {cache['evictions']}  "
            f"corrupt: {cache['corrupt']}"
        )
        lines.append("")

    guard = manifest.get("guard")
    if guard is not None:
        lines.append("supervised grids")
        for grid in guard.get("grids", []):
            lines.append(
                f"  {grid['name']}: {grid['cells']} cells — "
                f"{grid['ok']} ok, {grid['retried']} retried, "
                f"{grid['quarantined']} quarantined, "
                f"{grid['timed_out']} timed out"
            )
            lines.append(
                f"    retries: {grid['retries']}  "
                f"deadline kills: {grid['timeouts']}  "
                f"crashes: {grid['crashes']}  "
                f"pool rebuilds: {grid['pool_rebuilds']}  "
                f"journal hits: {grid['journal_hits']}"
                + ("  [serial fallback]" if grid["serial_fallback"] else "")
            )
            for event in grid.get("events", []):
                lines.append(
                    f"    cell {event['index']} [{event['config']}]: "
                    f"{event['status']} (attempts={event['attempts']})"
                )
        lines.append("")

    logs = manifest.get("logs")
    if logs is not None:
        levels = "  ".join(
            f"{lvl}: {n}" for lvl, n in logs.get("by_level", {}).items()
        )
        lines.append(
            f"structured log [{logs.get('schema', '?')}]  "
            f"{logs.get('events', 0)} events"
            + (f"  (dropped {logs['dropped']})" if logs.get("dropped") else "")
        )
        if levels:
            lines.append(f"  {levels}")
        for event, count in logs.get("by_event", {}).items():
            lines.append(f"    {event:<38s} x{count}")
        lines.append("")

    verify = manifest.get("verify")
    if verify is not None:
        lines.append(
            f"verify [{verify.get('schema', '?')}]  "
            f"seed={verify.get('seed')} cases={verify.get('cases')}  "
            + (
                "all oracles agree"
                if verify.get("ok")
                else f"{len(verify.get('failures', []))} FAILURES"
            )
            + (
                f"  (plant={verify['plant']})"
                if verify.get("plant")
                else ""
            )
        )
        for name, runs in verify.get("oracles_run", {}).items():
            lines.append(f"  {name:<38s} x{runs}")
        for failure in verify.get("failures", []):
            lines.append(
                f"  FAIL case {failure['index']} "
                f"[{failure['oracle']}]: {failure['detail']}"
            )
            if failure.get("reproducer"):
                lines.append(f"    reproducer: {failure['reproducer']}")
        lines.append("")

    serve = manifest.get("serve")
    if serve is not None:
        lines.append(f"serving [{serve.get('schema', '?')}]")
        for m in serve.get("methods", []):
            shed = sum(m.get("shed", {}).values())
            lat = m.get("latency_s", {})
            lines.append(
                f"  {m['method']:<10s} {m['n_replicas']:>3d} replicas x "
                f"{format_bytes(m['replica_bytes'])} "
                f"(budget {format_bytes(m['budget_bytes'])})"
            )
            lines.append(
                f"    goodput: {m['goodput_rps']:,.0f} rps "
                f"(offered {m['offered_rps']:,.0f})  "
                f"on-time: {m['on_time']}/{m['requests']}  "
                f"shed: {shed}  failed: {m['failed']}"
            )
            lines.append(
                f"    latency p50/p95/p99: "
                f"{format_seconds(lat.get('p50', 0.0))} / "
                f"{format_seconds(lat.get('p95', 0.0))} / "
                f"{format_seconds(lat.get('p99', 0.0))}  "
                f"occupancy: {m['occupancy']:.0%}  "
                f"deaths: {m['deaths']}  retries: {m['retries']}"
            )
        lines.append("")

    live = manifest.get("liveness")
    if live is not None:
        lines.append("liveness")
        lines.append(
            f"  peak: {format_bytes(live['peak_bytes'])} at step "
            f"{live['peak_step']}/{live['n_steps']}  "
            f"no-reuse total: {format_bytes(live['total_bytes'])}  "
            f"saving: {live['reuse_saving']:.0%}"
        )
        lines.append("")

    spans = manifest.get("hot_spans", [])
    if spans:
        lines.append(f"hot spans (top {len(spans)})")
        for s in spans:
            lines.append(
                f"  [{s['track']}] {s['name']:<38s} "
                f"{format_seconds(s['total_s']):>12s} "
                f"x{s['calls']}"
            )
    return "\n".join(lines).rstrip("\n")
