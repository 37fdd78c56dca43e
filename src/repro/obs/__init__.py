"""Structured tracing and metrics (the PopVision-analyzer stand-in).

The simulators compute per-step compute/exchange/sync splits, per-kernel
times and per-tile memory maps, then historically threw them away after
rendering a text table.  This package keeps them:

* a :class:`Tracer` records nested spans (wall-clock on the host track,
  simulated time on virtual device tracks) and counters; exporters turn
  a trace into a Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto) or a text flame summary;
* a :class:`MetricRegistry` records labelled counters, gauges and
  log-bucketed histograms — the totals a perf gate can diff;
* :mod:`repro.obs.report` joins both (plus sections other packages
  build, such as the compiler's memory map) into a versioned
  ``repro.run/1`` JSON manifest, and
  :mod:`repro.obs.regress` diffs two manifests with per-metric
  tolerances (``python -m repro report`` / ``python -m repro regress``).

Both tracing and metrics are **off by default** and zero-cost when
disabled: the module installs :data:`NULL_TRACER` / :data:`NULL_REGISTRY`,
built with ``enabled=False``, whose recording methods return at once and
which never hold state, so the instrumented code paths change neither
behavior nor timing-model output.  Enable them around a region with::

    from repro import obs

    with obs.tracing() as tracer, obs.collecting() as registry:
        run_experiment()
    obs.write_chrome_trace(tracer, "trace.json")
    manifest = obs.build_manifest("my-run", registry=registry,
                                  tracer=tracer)

or from the command line with ``python -m repro trace <artefact>``.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    CounterRecord,
    SpanRecord,
    Tracer,
    get_tracer,
    jsonable,
    tracing,
)
from repro.obs.context import (
    ROOT_CONTEXT,
    TraceContext,
    context,
    derive_run_id,
    get_context,
    worker_track,
)
from repro.obs.log import (
    LOG_SCHEMA,
    NULL_LOG,
    LogEvent,
    RunLog,
    get_logger,
    logging,
    read_jsonl,
    to_jsonl,
    write_jsonl,
)
from repro.obs.export import (
    flame_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.timeline import (
    render_timeline_html,
    spans_from_chrome_trace,
    spans_from_manifest,
    write_timeline_html,
    write_trace_and_timeline,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    collecting,
    get_registry,
    log_bucket_edges,
)
from repro.obs.report import (
    ManifestError,
    build_manifest,
    logs_section,
    read_manifest,
    render_report,
    write_manifest,
)
from repro.obs.regress import Tolerance, regress

__all__ = [
    "NULL_TRACER",
    "CounterRecord",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "jsonable",
    "tracing",
    "ROOT_CONTEXT",
    "TraceContext",
    "context",
    "derive_run_id",
    "get_context",
    "worker_track",
    "LOG_SCHEMA",
    "NULL_LOG",
    "LogEvent",
    "RunLog",
    "get_logger",
    "logging",
    "read_jsonl",
    "to_jsonl",
    "write_jsonl",
    "flame_summary",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_timeline_html",
    "spans_from_chrome_trace",
    "spans_from_manifest",
    "write_timeline_html",
    "write_trace_and_timeline",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "collecting",
    "get_registry",
    "log_bucket_edges",
    "ManifestError",
    "build_manifest",
    "logs_section",
    "read_manifest",
    "render_report",
    "write_manifest",
    "Tolerance",
    "regress",
]
