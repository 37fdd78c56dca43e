"""Command-line entry point: artefacts, tracing, chaos, reports, gates.

Usage::

    python -m repro --help               # all subcommands + artefacts
    python -m repro list                 # available artefacts
    python -m repro table1 fig3 ...      # regenerate specific artefacts
    python -m repro all [--full]         # everything (opt. paper-scale)
    python -m repro fig5 --jobs 4 --cell-timeout 60 --retries 2 --resume
                                         # supervised grid (repro.guard)
    python -m repro trace fig6 --jobs 2  # tracer + log + HTML timeline
    python -m repro timeline fig6.trace.json   # re-render the timeline
    python -m repro chaos --seed 0       # fault-injection suite
    python -m repro fuzz --cases 50      # differential fuzzer + oracles
    python -m repro fuzz --cases 25 --shrink   # + minimised reproducers
    python -m repro report run.json      # render a repro.run/1 manifest
    python -m repro report --smoke       # deterministic smoke manifest
    python -m repro regress NEW BASE     # perf-regression gate (CI)

Subcommands live in the :data:`SUBCOMMANDS` registry — each entry owns
its argparse parser — and any leading argument that is *not* a
registered subcommand is treated as an artefact name (the historical
``python -m repro table1 fig3`` form).  See docs/OBSERVABILITY.md for
``trace``/``report``/``regress`` and docs/RESILIENCE.md for ``chaos``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from repro import guard as guardmod
from repro import obs
from repro.cache import NULL_CACHE, CompilationCache, caching
from repro.guard import GuardPolicy
from repro.experiments import (
    ablation,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    generations,
    table1,
    table2,
    table4,
    table5,
)


@dataclass(frozen=True)
class RunOptions:
    """How an artefact run was requested: budget, parallelism, supervision.

    ``guard`` is ``None`` unless any supervision flag
    (``--cell-timeout``/``--retries``/``--resume``/``--strict``) was
    passed; grid-backed renderers forward it to ``run_grid``.
    """

    full: bool = False
    jobs: int = 1
    guard: GuardPolicy | None = None


@dataclass(frozen=True)
class Artefact:
    """One regenerable artefact: its renderer and catalogue entry.

    ``render`` receives a :class:`RunOptions`; renderers that have no
    full-scale variant or no grid to parallelise simply ignore the
    corresponding field.
    """

    render: Callable[[RunOptions], str]
    desc: str
    slow: bool = field(default=False)


def _render_table2(o: RunOptions) -> str:
    if o.full:
        return table2.render(jobs=o.jobs, guard=o.guard)
    return table2.render(sizes=[1024], jobs=o.jobs, guard=o.guard)


def _render_fig6(o: RunOptions) -> str:
    if o.full:
        return fig6.render(jobs=o.jobs, guard=o.guard)
    return fig6.render(sizes=[128, 512, 2048], jobs=o.jobs, guard=o.guard)


def _render_fig7(o: RunOptions) -> str:
    if o.full:
        return fig7.render(jobs=o.jobs, guard=o.guard)
    return fig7.render(sizes=[128, 512, 2048], jobs=o.jobs, guard=o.guard)


def _render_table4(o: RunOptions) -> str:
    if o.full:
        return table4.render()
    return table4.render(table4.run(epochs=2, n_train=800, n_test=400))


def _render_table5(o: RunOptions) -> str:
    if o.full:
        return table5.render(jobs=o.jobs, guard=o.guard)
    return table5.render(
        table5.run(
            grid=[(2, 8, 2), (2, 8, 64), (16, 8, 2), (16, 32, 2)],
            epochs=1,
            n_train=400,
            n_test=200,
            jobs=o.jobs,
            guard=o.guard,
        )
    )


#: The artefact catalogue: name -> :class:`Artefact`.
ARTEFACTS: dict[str, Artefact] = {
    "table1": Artefact(
        lambda o: table1.render(),
        "device spec comparison (GC200 vs A30)",
    ),
    "fig3": Artefact(
        lambda o: fig3.render(),
        "exchange latency/bandwidth vs tile distance",
    ),
    "table2": Artefact(
        _render_table2, "dense/sparse matmul GFLOP/s matrix"
    ),
    "fig4": Artefact(
        lambda o: fig4.render() if o.full else fig4.render(base=1024),
        "skewed matmul, GPU vs IPU",
    ),
    "fig5": Artefact(
        lambda o: fig5.render(jobs=o.jobs, guard=o.guard),
        "IPU graph/memory growth with problem size",
    ),
    "fig6": Artefact(
        _render_fig6, "linear vs butterfly vs pixelfly layer times"
    ),
    "fig7": Artefact(
        _render_fig7, "compute sets & memory per factorization"
    ),
    "table4": Artefact(
        _render_table4,
        "SHL on synthetic CIFAR-10 (trains a model per method!)",
        slow=True,
    ),
    "table5": Artefact(
        _render_table5, "pixelfly hyper-parameter sweep", slow=True
    ),
    "ablations": Artefact(
        lambda o: ablation.render(),
        "cost-model ablations (streaming, AMP butterfly, sync)",
    ),
    "generations": Artefact(
        lambda o: generations.render(),
        "GC2 vs GC200 generational comparison",
    ),
}

#: Excluded from `all` without --full (they train models for minutes).
SLOW = {name for name, a in ARTEFACTS.items() if a.slow}


def _default_dir(name: str) -> pathlib.Path:
    """``benchmarks/<name>`` in a source checkout, else the working dir."""
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    candidate = repo_root / "benchmarks" / name
    if candidate.parent.is_dir():
        return candidate
    return pathlib.Path("benchmarks") / name


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for grid experiments (default 1: serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the compilation cache for this run",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="on-disk compilation cache directory "
        "(default: benchmarks/cache)",
    )


def _make_cache(args: argparse.Namespace) -> CompilationCache:
    """The run's compilation cache, honouring --no-cache/--cache-dir."""
    if args.no_cache:
        return NULL_CACHE
    cache_dir = (
        args.cache_dir if args.cache_dir is not None else _default_dir("cache")
    )
    return CompilationCache(path=cache_dir)


def _add_guard_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "supervised execution",
        "grids with --jobs N > 1 always run on the repro.guard "
        "supervisor, by default with no retries and failing on any "
        "failed cell; passing any of these (at any --jobs) sets its "
        "policy: per-cell deadlines, seeded retries, quarantine and a "
        "resumable completion journal (docs/RESILIENCE.md, "
        "'Supervised grids')",
    )
    group.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget per grid cell attempt; hung workers are "
        "killed and retried",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="K",
        help="transient-failure retries per cell before quarantine "
        "(default 2 when supervision is active)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already present in the journal (bit-identical "
        "to an uninterrupted run)",
    )
    group.add_argument(
        "--strict",
        action="store_true",
        help="raise after the grid completes if any cell failed, "
        "instead of quarantining",
    )
    group.add_argument(
        "--journal",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="completion-journal directory "
        "(default: benchmarks/journal when supervision is active)",
    )


def _make_guard(args: argparse.Namespace) -> GuardPolicy | None:
    """A :class:`GuardPolicy` when any supervision flag was passed."""
    active = (
        args.cell_timeout is not None
        or args.retries is not None
        or args.resume
        or args.strict
        or args.journal is not None
    )
    if not active:
        return None
    journal_dir = (
        args.journal if args.journal is not None else _default_dir("journal")
    )
    return GuardPolicy(
        cell_timeout_s=args.cell_timeout,
        retries=args.retries if args.retries is not None else 2,
        strict=args.strict,
        journal_dir=journal_dir,
        resume=args.resume,
    )


def _print_reports(reports: list[guardmod.GridReport]) -> int:
    """Print each grid report worth reading; 1 if any grid failed."""
    exit_code = 0
    for report in reports:
        if report.journal_hits or not report.ok or report.pool_rebuilds:
            print(report.render())
            print()
        if not report.ok:
            exit_code = 1
    return exit_code


# -- subcommands ---------------------------------------------------------------


def run_main(argv: list[str]) -> int:
    """``python -m repro [run] <artefact>...``: regenerate artefacts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate paper artefacts (the default subcommand).",
    )
    parser.add_argument(
        "artefacts",
        nargs="+",
        help="artefact names, 'all', or 'list'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale budgets (slow: full training runs)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also write NAME.txt and a repro.run/1 NAME.json manifest",
    )
    _add_cache_flags(parser)
    _add_guard_flags(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        guard = _make_guard(args)
    except ValueError as exc:
        parser.error(str(exc))

    if args.artefacts == ["list"]:
        return list_main([])

    names = list(ARTEFACTS) if args.artefacts == ["all"] else args.artefacts
    if args.artefacts == ["all"] and not args.full:
        names = [n for n in names if n not in SLOW]

    unknown = [n for n in names if n not in ARTEFACTS]
    if unknown:
        parser.error(
            f"unknown artefact(s) {unknown}; try 'python -m repro list'"
        )

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    opts = RunOptions(full=args.full, jobs=args.jobs, guard=guard)
    exit_code = 0
    for name in names:
        # A fresh cache per artefact (sharing one disk directory) keeps
        # each manifest's cache section scoped to that artefact's run.
        cache = _make_cache(args)
        if args.out:
            with obs.tracing() as tracer, obs.collecting() as registry, \
                    obs.logging() as runlog, caching(cache), \
                    guardmod.reporting() as reports:
                text = ARTEFACTS[name].render(opts)
            manifest = obs.build_manifest(
                name,
                registry=registry,
                tracer=tracer,
                cache=cache,
                config={
                    "artefact": name,
                    "full": args.full,
                    "jobs": args.jobs,
                },
                guard=reports,
                log=runlog,
            )
            obs.write_manifest(manifest, args.out / f"{name}.json")
            # The manifest carries event *counts* only (so parallel runs
            # stay bit-identical); the full stream lives alongside it.
            obs.write_jsonl(runlog, args.out / f"{name}.log.jsonl")
        else:
            with caching(cache), guardmod.reporting() as reports:
                text = ARTEFACTS[name].render(opts)
        print(text)
        print()
        if _print_reports(reports):
            exit_code = 1
        if args.out:
            (args.out / f"{name}.txt").write_text(text + "\n")
    return exit_code


def list_main(argv: list[str]) -> int:
    """``python -m repro list``: print the artefact table."""
    argparse.ArgumentParser(
        prog="python -m repro list",
        description="List available artefacts.",
    ).parse_args(argv)
    for name, artefact in ARTEFACTS.items():
        slow = " [slow]" if artefact.slow else ""
        print(f"{name:12s} {artefact.desc}{slow}")
    return 0


def trace_main(argv: list[str]) -> int:
    """``python -m repro trace <artefact>``: one run, full observability."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one artefact with tracing and structured logging "
        "enabled; write a Chrome trace-event JSON, a flame summary, a "
        "repro.log/1 JSONL and a self-contained HTML timeline next to "
        "the benchmark outputs.  With --jobs N (and optionally the "
        "supervision flags) worker-side spans and log events are merged "
        "into the same trace on cellN/... tracks.",
    )
    parser.add_argument(
        "artefact", help="artefact name; see 'python -m repro list'"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale budgets (slow: full training runs)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output directory (default: benchmarks/output)",
    )
    parser.add_argument(
        "--track",
        default=None,
        metavar="GLOB",
        help="restrict the flame summary to tracks matching GLOB "
        "(e.g. 'cell*/ipu'); trace, log and timeline keep every track",
    )
    _add_cache_flags(parser)
    _add_guard_flags(parser)
    args = parser.parse_args(argv)
    if args.artefact not in ARTEFACTS:
        parser.error(
            f"unknown artefact {args.artefact!r}; "
            "try 'python -m repro list'"
        )
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        guard = _make_guard(args)
    except ValueError as exc:
        parser.error(str(exc))
    cache = _make_cache(args)
    out_dir = args.out if args.out is not None else _default_dir("output")
    out_dir.mkdir(parents=True, exist_ok=True)
    opts = RunOptions(full=args.full, jobs=args.jobs, guard=guard)
    with obs.tracing() as tracer, obs.logging() as runlog, \
            caching(cache), guardmod.reporting() as reports:
        text = ARTEFACTS[args.artefact].render(opts)
    print(text)
    print()
    exit_code = _print_reports(reports)
    trace_path = obs.write_chrome_trace(
        tracer, out_dir / f"{args.artefact}.trace.json"
    )
    summary = obs.flame_summary(tracer, track=args.track)
    summary_path = out_dir / f"{args.artefact}.flame.txt"
    summary_path.write_text(summary + "\n")
    print(summary)
    log_path = obs.write_jsonl(
        runlog, out_dir / f"{args.artefact}.log.jsonl"
    )
    # Round-trip through the interchange format so this timeline is
    # exactly what `python -m repro timeline <trace.json>` would render.
    spans, counters = obs.spans_from_chrome_trace(
        obs.to_chrome_trace(tracer)
    )
    subtitle = f"jobs={args.jobs}" + (", supervised" if guard else "")
    timeline_path = obs.write_timeline_html(
        obs.render_timeline_html(
            spans,
            counters,
            events=list(runlog.events),
            title=f"repro trace: {args.artefact}",
            subtitle=subtitle,
        ),
        out_dir / f"{args.artefact}.timeline.html",
    )
    print(
        f"\n[trace: {trace_path} ({len(tracer.spans)} spans, "
        f"{len(tracer.counters)} counter samples); "
        f"flame summary: {summary_path};\n"
        f" log: {log_path} ({len(runlog.events)} events); "
        f"timeline: {timeline_path}]"
    )
    return exit_code


def timeline_main(argv: list[str]) -> int:
    """``python -m repro timeline``: render the unified HTML timeline."""
    parser = argparse.ArgumentParser(
        prog="python -m repro timeline",
        description="Combine a Chrome trace-event JSON (or a repro.run/1 "
        "manifest) with an optional repro.log/1 JSONL into one "
        "self-contained HTML timeline — no scripts, fonts or network "
        "dependencies, openable from a CI artefact store.",
    )
    parser.add_argument(
        "input",
        type=pathlib.Path,
        help="a NAME.trace.json Chrome trace, or a repro.run/1 manifest "
        "(hot spans render as per-track aggregate bars)",
    )
    parser.add_argument(
        "--log",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="repro.log/1 JSONL to overlay as a log lane + table "
        "(default: a sibling NAME.log.jsonl when present)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output HTML path (default: NAME.timeline.html next to "
        "the input)",
    )
    args = parser.parse_args(argv)
    try:
        doc = json.loads(args.input.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2

    counters: list = []
    metrics = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        spans, counters = obs.spans_from_chrome_trace(doc)
        source = "chrome trace"
    else:
        try:
            manifest = obs.read_manifest(args.input)
        except obs.ManifestError as exc:
            print(
                f"error: {args.input} is neither a Chrome trace "
                f"(no 'traceEvents') nor a repro.run/1 manifest: {exc}",
                file=sys.stderr,
            )
            return 2
        spans = obs.spans_from_manifest(manifest)
        metrics = manifest.get("metrics") or None
        source = "repro.run/1 manifest"

    # NAME.trace.json and NAME.json both pair with NAME.log.jsonl.
    base = args.input.name
    for suffix in (".trace.json", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    log_path = args.log
    if log_path is None:
        sibling = args.input.with_name(f"{base}.log.jsonl")
        if sibling.is_file():
            log_path = sibling
    events: list = []
    if log_path is not None:
        try:
            _header, events = obs.read_jsonl(log_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {log_path}: {exc}", file=sys.stderr)
            return 2

    out = (
        args.out
        if args.out is not None
        else args.input.with_name(f"{base}.timeline.html")
    )
    path = obs.write_timeline_html(
        obs.render_timeline_html(
            spans,
            counters,
            events=events,
            metrics=metrics,
            title=f"repro timeline: {base}",
            subtitle=f"from {args.input.name} ({source})"
            + (f" + {log_path.name}" if log_path is not None else ""),
        ),
        out,
    )
    print(
        f"[timeline: {path} ({len(spans)} spans, {len(counters)} counter "
        f"samples, {len(events)} log events)]"
    )
    return 0


def chaos_main(argv: list[str]) -> int:
    """``python -m repro chaos``: run the fault-injection suite."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Inject seeded faults into the simulator and trainer, "
        "verify recovery, replay determinism, bit-identical kill/resume "
        "and the degraded-tile sweep.  Exits 1 on any failure.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default 0)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small models and budgets (CI-sized, a few seconds)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also write DIR/chaos.txt",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="SCENARIO",
        help="run one scenario only: executor, kill-resume, guard, "
        "or tile-sweep (default: all)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    # Imported lazily: the chaos harness pulls in the experiment configs.
    from repro.faults.chaos import SCENARIOS, run_chaos

    if args.only is not None and args.only not in SCENARIOS:
        parser.error(
            f"unknown scenario {args.only!r}; choose from "
            f"{', '.join(SCENARIOS)}"
        )
    text, ok = run_chaos(seed=args.seed, smoke=args.smoke, only=args.only)
    print(text)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "chaos.txt").write_text(text + "\n")
    return 0 if ok else 1


def fuzz_main(argv: list[str]) -> int:
    """``python -m repro fuzz``: the seeded differential fuzzer."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Generate seeded random workloads and check that "
        "every independent pipeline path agrees: factored vs dense "
        "layers, planned vs unplanned memory, cached vs cold compiles, "
        "serial vs guarded-parallel grids, recovered vs clean chaos "
        "runs.  Failures are delta-debugged (--shrink) to minimal "
        "reproducers.  Exits 1 on any disagreement — see "
        "docs/VERIFICATION.md.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)"
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=50,
        metavar="K",
        help="number of generated cases (default 50)",
    )
    parser.add_argument(
        "--start",
        type=int,
        default=0,
        metavar="I",
        help="first case index (cases are pure in (seed, index))",
    )
    parser.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named oracle (repeatable; default: all "
        "applicable per case)",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug each failure to a minimal reproducer",
    )
    parser.add_argument(
        "--corpus",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="where --shrink writes reproducer JSONs "
        "(default: benchmarks/output/corpus)",
    )
    parser.add_argument(
        "--plant",
        default=None,
        metavar="BUG",
        help="activate a known-bad mutation for the whole run "
        "(fuzzer self-test; see repro.verify.hooks.PLANTS)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also write DIR/fuzz.txt and a repro.run/1 DIR/fuzz.json "
        "manifest with a verify section",
    )
    args = parser.parse_args(argv)
    # Imported lazily: the fuzzer pulls in every pipeline subsystem.
    from repro.verify import ORACLES, run_fuzz
    from repro.verify.hooks import PLANTS

    if args.cases < 1:
        parser.error(f"--cases must be >= 1, got {args.cases}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.start < 0:
        parser.error(f"--start must be >= 0, got {args.start}")
    unknown = [o for o in (args.oracle or []) if o not in ORACLES]
    if unknown:
        parser.error(
            f"unknown oracle(s) {unknown}; choose from "
            f"{', '.join(ORACLES)}"
        )
    if args.plant is not None and args.plant not in PLANTS:
        parser.error(
            f"unknown plant {args.plant!r}; choose from "
            f"{', '.join(PLANTS)}"
        )
    corpus_dir = args.corpus
    if args.shrink and corpus_dir is None:
        corpus_dir = _default_dir("output") / "corpus"
    with obs.tracing() as tracer, obs.collecting() as registry:
        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            oracles=args.oracle,
            shrink=args.shrink,
            corpus_dir=corpus_dir if args.shrink else None,
            plant=args.plant,
            start=args.start,
        )
    print(report.render())
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "fuzz.txt").write_text(report.render() + "\n")
        manifest = obs.build_manifest(
            "fuzz",
            registry=registry,
            tracer=tracer,
            config={
                "cases": args.cases,
                "start": args.start,
                "shrink": args.shrink,
                "oracles": sorted(args.oracle) if args.oracle else "all",
                **({"plant": args.plant} if args.plant else {}),
            },
            seed=args.seed,
            verify=report,
        )
        path = obs.write_manifest(manifest, args.out / "fuzz.json")
        print(f"\n[manifest: {path}]")
    return 0 if report.ok else 1


def report_main(argv: list[str]) -> int:
    """``python -m repro report``: render (or produce) a run manifest."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render a repro.run/1 manifest as a terminal report, "
        "or (--smoke) run the deterministic smoke workload, write its "
        "manifest and render it — the CI baseline generator.",
    )
    parser.add_argument(
        "manifest",
        nargs="?",
        type=pathlib.Path,
        help="path to a repro.run/1 JSON manifest",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke workload instead of reading a manifest",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="where --smoke writes its manifest "
        "(default: benchmarks/output/smoke.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke == (args.manifest is not None):
        parser.error("pass exactly one of: a manifest path, or --smoke")
    if args.smoke:
        manifest = obs.smoke_manifest()
        out = (
            args.out
            if args.out is not None
            else _default_dir("output") / "smoke.json"
        )
        path = obs.write_manifest(manifest, out)
        print(obs.render_report(manifest))
        print(f"\n[manifest: {path}]")
        return 0
    try:
        manifest = obs.read_manifest(args.manifest)
    except obs.ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(obs.render_report(manifest))
    return 0


def regress_main(argv: list[str]) -> int:
    """``python -m repro regress``: gate a manifest against a baseline."""
    from repro.obs.regress import (
        DEFAULT_TOLERANCE,
        parse_tolerance,
        regress,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro regress",
        description="Diff two repro.run/1 manifests with per-metric "
        "relative tolerances.  Exits 0 when the candidate is within "
        "tolerance of the baseline, 1 on any regression, 2 on bad "
        "input — see docs/OBSERVABILITY.md.",
    )
    parser.add_argument(
        "candidate", type=pathlib.Path, help="the new run's manifest"
    )
    parser.add_argument(
        "baseline",
        type=pathlib.Path,
        help="the baseline manifest (e.g. benchmarks/baselines/smoke.json)",
    )
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="PATTERN=REL",
        help="per-metric tolerance (glob over flattened metric keys; "
        "REL is a relative fraction or 'none' to skip); repeatable, "
        "first match wins",
    )
    parser.add_argument(
        "--default-tol",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"tolerance for unmatched metrics (default "
        f"{DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="show every metric comparison, not only failures",
    )
    args = parser.parse_args(argv)
    try:
        rules = tuple(parse_tolerance(spec) for spec in args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        candidate = obs.read_manifest(args.candidate)
        baseline = obs.read_manifest(args.baseline)
    except obs.ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = regress(
            candidate, baseline, rules=rules, default_tol=args.default_tol
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render(show_all=args.all))
    return 0 if result.ok else 1


def serve_main(argv: list[str]) -> int:
    """``python -m repro serve``: the inference-serving simulation."""
    from repro.bench.parallel import run_grid
    from repro.serve import (
        SERVE_METHODS,
        ServeScenario,
        record_metrics,
        record_spans,
        serve_section,
        serve_worker,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Simulate serving an open-loop request stream with "
        "dense vs butterfly vs pixelfly replicas under one IPU memory "
        "budget; writes a repro.run/1 manifest with a repro.serve/1 "
        "section, a Chrome trace and an HTML timeline (one track per "
        "replica).  Fully deterministic: same seed, byte-identical "
        "manifest, at any --jobs — see docs/SERVING.md.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="pin the canonical baseline scenario (ignores the workload "
        "flags below) — what CI runs and regress gates against",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload/fault seed"
    )
    parser.add_argument(
        "--methods",
        default=",".join(SERVE_METHODS),
        help=f"comma-separated subset of {SERVE_METHODS} "
        "(default: all three)",
    )
    parser.add_argument(
        "--dim", type=int, default=512, help="model width (default 512)"
    )
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=32.0,
        help="IPU memory budget per method, MiB (default 32)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=400,
        help="requests in the stream (default 400)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=400000.0,
        help="offered load, requests/s (default 400000)",
    )
    parser.add_argument(
        "--arrival",
        choices=("poisson", "burst"),
        default="poisson",
        help="arrival process (default poisson)",
    )
    parser.add_argument(
        "--slo-ms",
        type=float,
        default=0.5,
        help="per-request deadline, ms after arrival (default 0.5)",
    )
    parser.add_argument(
        "--deaths",
        type=int,
        default=1,
        help="replicas killed mid-run per method (default 1)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="output directory (default: benchmarks/output)",
    )
    _add_cache_flags(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        parser.error(
            f"--methods must name at least one method, got {args.methods!r}"
        )
    unknown = [m for m in methods if m not in SERVE_METHODS]
    if unknown:
        parser.error(
            f"unknown methods {unknown}; expected a subset of "
            f"{SERVE_METHODS}"
        )
    if args.smoke:
        # The canonical scenario: every flag but --seed/--jobs/--out
        # pinned, so two smoke runs anywhere are byte-comparable.
        scenario = ServeScenario(method="dense", seed=args.seed)
        methods = list(SERVE_METHODS)
    else:
        scenario = ServeScenario(
            method="dense",
            dim=args.dim,
            budget_bytes=args.budget_mb * 2**20,
            n_requests=args.requests,
            rate_rps=args.rate,
            arrival=args.arrival,
            slo_ms=args.slo_ms,
            n_deaths=args.deaths,
            seed=args.seed,
        )
    configs = [
        dataclasses.replace(scenario, method=method).as_config()
        for method in methods
    ]

    cache = _make_cache(args)
    out_dir = args.out if args.out is not None else _default_dir("output")
    out_dir.mkdir(parents=True, exist_ok=True)
    with caching(cache):
        results = run_grid(
            serve_worker,
            configs,
            jobs=args.jobs,
            seed=args.seed,
            name="serve",
        )

    # Presentation is rebuilt from the workers' plain dicts in method
    # order, under fresh (non-ambient) instruments, and the manifest
    # carries no cache/wall-clock sections and no --jobs in its config —
    # which is why a --jobs 2 manifest is byte-identical to --jobs 1.
    registry = obs.MetricRegistry()
    tracer = obs.Tracer()
    record_metrics(results, registry)
    record_spans(results, tracer)
    config = {
        key: value
        for key, value in configs[0].items()
        if key != "method"
    }
    config["methods"] = ",".join(methods)
    manifest = obs.build_manifest(
        "serve",
        registry=registry,
        tracer=tracer,
        cache=NULL_CACHE,
        config=config,
        seed=args.seed,
        serve=serve_section(results),
    )
    manifest_path = obs.write_manifest(manifest, out_dir / "serve.json")
    text = obs.render_report(manifest)
    (out_dir / "serve.txt").write_text(text + "\n")
    print(text)

    trace_path = obs.write_chrome_trace(
        tracer, out_dir / "serve.trace.json"
    )
    spans, counters = obs.spans_from_chrome_trace(
        obs.to_chrome_trace(tracer)
    )
    timeline_path = obs.write_timeline_html(
        obs.render_timeline_html(
            spans,
            counters,
            title="repro serve",
            subtitle=f"seed={args.seed}, methods={','.join(methods)}",
        ),
        out_dir / "serve.timeline.html",
    )
    print(
        f"\n[manifest: {manifest_path}; trace: {trace_path}; "
        f"timeline: {timeline_path}]"
    )
    return 0


# -- dispatch ------------------------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    """One registered subcommand: its entry point and help line."""

    main: Callable[[list[str]], int]
    help: str


#: The subcommand registry; ``main`` dispatches by first argument and
#: falls back to :func:`run_main` (artefact names) for anything else.
SUBCOMMANDS: dict[str, Subcommand] = {
    "run": Subcommand(run_main, "regenerate artefacts (the default)"),
    "list": Subcommand(list_main, "list available artefacts"),
    "trace": Subcommand(
        trace_main,
        "run one artefact under tracer+log (Chrome JSON, JSONL, HTML)",
    ),
    "timeline": Subcommand(
        timeline_main, "render a trace/manifest (+log) as an HTML timeline"
    ),
    "chaos": Subcommand(
        chaos_main, "fault-injection & recovery suite (RESILIENCE.md)"
    ),
    "fuzz": Subcommand(
        fuzz_main,
        "seeded differential fuzzer + oracles (VERIFICATION.md)",
    ),
    "serve": Subcommand(
        serve_main,
        "inference-serving simulation: replicas-per-budget & goodput "
        "(SERVING.md)",
    ),
    "report": Subcommand(
        report_main, "render a repro.run/1 manifest (or --smoke)"
    ),
    "regress": Subcommand(
        regress_main, "perf-regression gate between two manifests"
    ),
}


def _top_help() -> str:
    lines = [
        "usage: python -m repro <subcommand|artefact...> [options]",
        "",
        "subcommands:",
    ]
    for name, spec in SUBCOMMANDS.items():
        lines.append(f"  {name:<10s} {spec.help}")
    lines.append("")
    lines.append("artefacts (python -m repro <name>... / run <name>...):")
    for name, artefact in ARTEFACTS.items():
        slow = " [slow]" if artefact.slow else ""
        lines.append(f"  {name:<12s} {artefact.desc}{slow}")
    lines.append("")
    lines.append(
        "use 'python -m repro <subcommand> --help' for per-subcommand "
        "options"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print(_top_help())
        return 0
    spec = SUBCOMMANDS.get(argv[0])
    if spec is not None:
        return spec.main(argv[1:])
    # Not a subcommand: historical artefact invocation.
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
