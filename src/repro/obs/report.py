"""PopVision-style run reports: the versioned ``repro.run/1`` manifest.

A *run manifest* is one JSON document describing one run: host info,
seed, config, the metric registry's snapshot, a per-tile memory section
built from the compiler's :class:`~repro.ipu.compiler.MemoryReport`
(totals match it exactly), an optional liveness summary, and the top-k
hottest trace spans.  Manifests are what the perf trajectory is made of:
every benchmark run writes one next to its ``.txt`` artefact, and
:mod:`repro.obs.regress` diffs two of them with per-metric tolerances.

Schema ``repro.run/1`` — field table in docs/OBSERVABILITY.md.  The CLI
entry points are ``python -m repro report <manifest>`` (render) and
``python -m repro report --smoke`` (run a small deterministic workload
and write its manifest, the CI baseline generator).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys

from repro.obs.metrics import (
    DEFAULT_BYTES_EDGES,
    Histogram,
    MetricRegistry,
    get_registry,
)
from repro.obs.tracer import Tracer, get_tracer
from repro.utils import format_bytes, format_seconds

__all__ = [
    "SCHEMA",
    "ManifestError",
    "build_manifest",
    "cache_section",
    "guard_section",
    "memory_section",
    "liveness_section",
    "logs_section",
    "verify_section",
    "hot_spans",
    "write_manifest",
    "read_manifest",
    "render_report",
    "smoke_manifest",
]

#: The manifest schema this module writes and understands.
SCHEMA = "repro.run/1"


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


def memory_section(memory) -> dict:
    """The per-tile memory section of a manifest.

    *memory* is an :class:`~repro.ipu.compiler.MemoryReport` (duck-typed
    to avoid importing :mod:`repro.ipu` here).  Totals are copied
    verbatim — ``total_bytes``/``peak_tile_bytes``/``free_bytes`` equal
    the compiler's report exactly — and the per-tile byte distribution
    is folded into fixed log-spaced buckets so manifests stay small and
    comparable at any tile count.
    """
    hist = Histogram(edges=DEFAULT_BYTES_EDGES)
    hist.observe_many(float(b) for b in memory.per_tile_bytes)
    b = memory.breakdown
    section = {
        "n_tiles": int(len(memory.per_tile_bytes)),
        "usable_tile_bytes": float(memory.spec.usable_tile_memory),
        "total_bytes": float(memory.total_bytes),
        "peak_tile_bytes": float(memory.peak_tile_bytes),
        "free_bytes": float(memory.free_bytes),
        "fits": bool(memory.fits),
        "breakdown": {
            "variables": float(b.variables),
            "vertex_state": float(b.vertex_state),
            "edge_code": float(b.edge_code),
            "control_code": float(b.control_code),
            "codelet_code": float(b.codelet_code),
            "exchange_buffers": float(b.exchange_buffers),
        },
        "per_tile_histogram": hist.snapshot_value(),
    }
    if getattr(memory, "planned", False):
        # Planned compiles carry the no-reuse comparison so the
        # reclaimed headroom is readable straight off the manifest.
        section["planned"] = True
        section["peak_planned_bytes"] = float(memory.peak_planned_bytes)
        section["no_reuse_peak_tile_bytes"] = float(
            memory.no_reuse_peak_tile_bytes
        )
        section["plan_saving_bytes"] = float(memory.plan_saving_bytes)
        section["plan_saving_fraction"] = float(
            memory.plan_saving_fraction
        )
    return section


def cache_section(cache) -> dict:
    """The compilation-cache section of a manifest.

    *cache* is a :class:`~repro.cache.CompilationCache` (duck-typed to
    avoid importing :mod:`repro.cache` here).  Deliberately excludes the
    on-disk path and the memory/disk hit split: a ``--jobs 4`` run and a
    ``--jobs 1`` run of the same grid then produce identical sections
    (workers hit the shared disk tier where a serial run hits its own
    memory tier), which the determinism test relies on.
    """
    stats = cache.stats
    return {
        "enabled": bool(cache.enabled),
        "hits": int(stats.hits),
        "misses": int(stats.misses),
        "stores": int(stats.stores),
        "evictions": int(stats.evictions),
        "corrupt": int(stats.corrupt),
    }


def guard_section(reports) -> dict:
    """The supervised-grid section of a manifest.

    *reports* is a list of :class:`~repro.guard.GridReport` (duck-typed
    to avoid importing :mod:`repro.guard` here), one per supervised grid
    executed during the run.  Per-cell entries are included only for
    cells that did *not* complete clean on the first attempt, so a
    healthy run's section stays a handful of zeros.
    """
    grids = []
    for report in reports:
        grids.append(
            {
                "name": report.name,
                "cells": int(report.n_cells),
                "ok": int(report.n_ok),
                "retried": int(report.n_retried),
                "quarantined": int(report.n_quarantined),
                "timed_out": int(report.n_timed_out),
                "retries": int(report.total_retries),
                "timeouts": int(report.total_timeouts),
                "crashes": int(report.total_crashes),
                "pool_rebuilds": int(report.pool_rebuilds),
                "serial_fallback": bool(report.serial_fallback),
                "journal_hits": int(report.journal_hits),
                "events": [
                    cell.as_dict()
                    for cell in report.cells
                    if cell.status != "ok" or cell.retries
                ],
            }
        )
    return {
        "grids": grids,
        "ok": all(r.ok for r in reports),
    }


def liveness_section(liveness) -> dict:
    """Summary of a :class:`~repro.ipu.liveness.LivenessReport`."""
    return {
        "n_steps": int(liveness.n_steps),
        "peak_bytes": float(liveness.peak_bytes),
        "peak_step": int(liveness.peak_step),
        "total_bytes": float(liveness.total_bytes),
        "always_live_bytes": float(liveness.always_live_bytes),
        "reuse_saving": float(liveness.reuse_saving),
    }


def logs_section(log) -> dict:
    """The structured-log section of a manifest.

    *log* is a :class:`~repro.obs.log.RunLog` (duck-typed to keep the
    import graph flat).  Counts only — event timestamps are wall clock,
    so including them would break the ``--jobs 4`` vs ``--jobs 1``
    manifest bit-identity the determinism tests assert; the full event
    stream lives in the sibling ``repro.log/1`` JSONL file.
    """
    from repro.obs.log import LOG_SCHEMA

    return {
        "schema": LOG_SCHEMA,
        "events": len(log.events),
        "dropped": int(log.dropped),
        "by_level": log.by_level(),
        "by_event": log.by_event(),
    }


def verify_section(report) -> dict:
    """The differential-fuzzer section of a manifest.

    *report* is a :class:`~repro.verify.runner.FuzzReport` (duck-typed
    to keep :mod:`repro.verify` out of this module's import graph).
    Per-failure entries carry the ``(seed, index)`` coordinates, so any
    failure in a stored manifest regenerates bit-identically with
    ``python -m repro fuzz --seed S --cases 1`` from that index.
    """
    failures = []
    for failure in report.failures:
        entry = {
            "index": int(failure.index),
            "oracle": failure.oracle,
            "detail": failure.detail,
            "shrink_steps": int(failure.shrink_steps),
        }
        if failure.corpus_path:
            entry["reproducer"] = failure.corpus_path
        failures.append(entry)
    section = {
        "schema": "repro.verify/1",
        "seed": int(report.seed),
        "cases": int(report.n_cases),
        "ok": bool(report.ok),
        "oracles_run": {
            name: int(runs) for name, runs in report.oracles_run.items()
        },
        "failures": failures,
        "shrink_steps": int(report.shrink_steps),
    }
    if report.plant:
        section["plant"] = report.plant
    return section


def hot_spans(tracer: Tracer, top_k: int = 20) -> list[dict]:
    """The *top_k* heaviest (track, span-name) aggregates of a trace."""
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
        for (track, name), (total, calls) in ranked[:top_k]
    ]


def build_manifest(
    name: str,
    registry: MetricRegistry | None = None,
    tracer: Tracer | None = None,
    memory=None,
    liveness=None,
    cache=None,
    config: dict | None = None,
    seed: int | None = None,
    top_k: int = 20,
    guard=None,
    log=None,
    verify=None,
    serve=None,
) -> dict:
    """Join metrics, trace and compiler data into one ``repro.run/1`` dict.

    *registry*/*tracer* default to the process-global instances; the
    memory and liveness sections appear only when their reports are
    supplied.  *cache* defaults to the process-global compilation cache
    and contributes a ``cache`` section whenever that cache is enabled.
    *guard* is a list of :class:`~repro.guard.GridReport` (typically
    from ``guard.reporting()``); a non-empty list contributes a
    ``guard`` section.  *log* is a :class:`~repro.obs.log.RunLog`; an
    enabled one contributes a ``logs`` section (absent when logging is
    off, so disabled-path manifests are byte-identical to before).
    *verify* is a :class:`~repro.verify.runner.FuzzReport` and
    contributes a ``repro.verify/1`` ``verify`` section.  *serve* is an
    already-built ``repro.serve/1`` section dict (see
    :func:`repro.serve.report.serve_section`) and is carried verbatim.
    """
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    if cache is None:
        from repro.cache import get_cache

        cache = get_cache()
    manifest = {
        "schema": SCHEMA,
        "name": name,
        "host": _host_info(),
        "seed": seed,
        "config": dict(config) if config else {},
        "metrics": registry.snapshot(),
        "hot_spans": hot_spans(tracer, top_k=top_k),
        "trace": {
            "n_spans": len(tracer.spans),
            "n_counters": len(tracer.counters),
            "tracks": tracer.tracks(),
        },
    }
    if memory is not None:
        manifest["memory"] = memory_section(memory)
    if liveness is not None:
        manifest["liveness"] = liveness_section(liveness)
    if cache.enabled:
        manifest["cache"] = cache_section(cache)
    if guard:
        manifest["guard"] = guard_section(guard)
    if log is not None and log.enabled:
        manifest["logs"] = logs_section(log)
    if verify is not None:
        manifest["verify"] = verify_section(verify)
    if serve is not None:
        manifest["serve"] = dict(serve)
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


# -- the smoke workload --------------------------------------------------------


def smoke_manifest(size: int = 256, seed: int = 0) -> dict:
    """Run a small, fully deterministic workload and build its manifest.

    Compiles a poplin matmul graph twice under a fresh in-memory
    compilation cache (the second compile is a guaranteed cache hit, so
    the manifest's ``cache`` section always shows ``hits >= 1`` — CI
    asserts this), compiles a small MLP forward graph with the memory
    planner (so the baseline carries ``compile.peak_planned_bytes`` and
    a nonzero ``compile.plan_reuse_fraction`` — CI gates the planned
    peak against increases), runs liveness analysis and a BSP time
    estimate under a fresh tracer + registry.  Every gateable metric is
    simulated (cost-model) output, so two runs on any machine produce
    identical ``metrics`` sections — this is what CI diffs against
    ``benchmarks/baselines/smoke.json``.
    """
    from repro import nn
    from repro.cache import caching
    from repro.ipu.compiler import compile_graph
    from repro.ipu.executor import Executor
    from repro.ipu.liveness import compute_liveness
    from repro.ipu.machine import GC200
    from repro.ipu.poplin import build_matmul_graph
    from repro.ipu.poptorch import IPUModule
    from repro.obs.metrics import collecting
    from repro.obs.tracer import tracing

    with tracing() as tracer, collecting() as registry, caching() as cache:
        graph, _ = build_matmul_graph(GC200, size, size, size)
        compiled = compile_graph(graph, GC200, check_fit=False)
        compile_graph(graph, GC200, check_fit=False)  # cache hit
        liveness = compute_liveness(graph)
        Executor(compiled).estimate()
        mlp = nn.Sequential(
            *[
                m
                for i in range(4)
                for m in (
                    nn.Linear(size // 2, size // 2, seed=i),
                    nn.ReLU(),
                )
            ]
        )
        module = IPUModule(mlp, size // 2, size // 2, spec=GC200)
        planned = compile_graph(
            module.graph, GC200, check_fit=False, plan_memory=True
        )
    return build_manifest(
        "smoke",
        registry=registry,
        tracer=tracer,
        memory=planned.memory,
        liveness=liveness,
        cache=cache,
        config={"size": size, "spec": GC200.name},
        seed=seed,
    )
