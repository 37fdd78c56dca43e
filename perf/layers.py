"""Layer-attributed tracing for the benchmark's traced repetitions.

:class:`Patched` replaces each entry point in :data:`TARGETS` with a timing
wrapper in every binding the loaded ``repro`` modules hold: module
globals (``compiler._plan_memory`` is ``memplan.plan_memory``), class
attributes, and dataclass records kept in module-level dicts (the
``Oracle.check`` callables of ``verify.oracles.ORACLES``).  Wrappers record
spans into a private :class:`repro.obs.Tracer` that is never installed as
the ambient tracer, so the program's own spans stay off.  On exit every
original is put back, including bindings that modules imported during the
run copied from a patched module.

:func:`layer_metrics` turns the spans into the per-layer metrics of
:data:`METRICS`; every ``_s`` value is self time (span duration minus the
time its child spans cover) unless the metric says *inclusive*.

Only the standard library is imported at module level, so ``bench.py``
can read the metric catalogue without importing numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from workloads import ARTEFACTS

METHODS = ("Baseline", "Butterfly", "Fastfood", "Circulant", "Low-rank", "Pixelfly")
FUNCTIONS = (
    "MatMul",
    "ButterflyMultiplyFn",
    "BlockSparseMultiplyFn",
    "FWHTFn",
    "CirculantMultiplyFn",
)
ORACLES = (
    "forward_dense",
    "backward_dense",
    "batched_forward",
    "metamorphic_linear",
    "metamorphic_probe",
    "optimizer_reference",
    "planned_unplanned",
    "cached_cold",
    "grid_manifest",
    "chaos_recovery",
)


# -- targets -------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` and its span name."""

    path: str
    span: str
    #: ``(args, kwargs) -> op id`` for spans nested inside this one.
    op: Callable[[tuple, dict], Any] | None = None
    #: ``(args, kwargs, result) -> {counter: amount}`` recorded on the span.
    counts: Callable[[tuple, dict, Any], dict] | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _graph_vertices(args, kwargs, result) -> dict:
    return {"vertices": _arg(args, kwargs, 0, "graph").n_vertices}


def _built_vertices(args, kwargs, result) -> dict:
    graph = result[0] if isinstance(result, tuple) else result
    return {"vertices": graph.n_vertices}


_FN = "repro.nn.structured._functions"
TARGETS: tuple[Target, ...] = (
    # nn and its kernels
    Target("repro.nn.functional:MatMul.forward", "nn.fwd.MatMul"),
    Target("repro.nn.functional:MatMul.backward", "nn.bwd.MatMul"),
    *(
        Target(f"{_FN}:{fn}.{phase}", f"nn.{short}.{fn}")
        for fn in FUNCTIONS[1:]
        for phase, short in (("forward", "fwd"), ("backward", "bwd"))
    ),
    Target("repro.nn.tensor:Tensor.backward", "nn.autograd"),
    Target("repro.nn.optim:SGD.step", "nn.sgd_step"),
    Target("repro.nn.trainer:Trainer.evaluate", "nn.evaluate"),
    Target("repro.nn.trainer:Trainer.train_step", "nn.train_step"),
    Target(
        "repro.experiments.table4:run_method",
        "train.method",
        op=lambda a, k: _arg(a, k, 0, "method"),
    ),
    # ipu lowering
    Target(
        "repro.ipu.poptorch:lower_model", "ipu.lower", counts=_built_vertices
    ),
    Target(
        "repro.ipu.poplin:build_matmul_graph",
        "ipu.lower",
        counts=_built_vertices,
    ),
    Target(
        "repro.ipu.poplin:build_blocked_matmul_graph",
        "ipu.lower",
        counts=_built_vertices,
    ),
    Target(
        "repro.ipu.popsparse:build_spmm_graph",
        "ipu.lower",
        counts=_built_vertices,
    ),
    # ipu compiler, liveness, memory planner
    Target(
        "repro.ipu.compiler:compile_graph",
        "ipu.compile",
        counts=_graph_vertices,
    ),
    Target("repro.ipu.memplan:plan_memory", "ipu.plan"),
    Target("repro.ipu.liveness:compute_liveness", "ipu.liveness"),
    *(
        Target(
            f"repro.experiments.{name}:run",
            "compile.artefact",
            op=lambda a, k, name=name: name,
        )
        for name in ARTEFACTS
    ),
    # ipu executor
    Target(
        "repro.ipu.executor:Executor.estimate",
        "ipu.estimate",
        counts=lambda a, k, r: {"vertices": a[0].graph.n_vertices},
    ),
    Target("repro.ipu.executor:Executor.run", "ipu.run"),
    # gpu cost model
    Target("repro.gpu.torchsim:lower_model_gpu", "gpu.cost"),
    Target("repro.gpu.torchsim:GPUModule.forward_time", "gpu.cost"),
    Target("repro.gpu.torchsim:GPUModule.training_step_time", "gpu.cost"),
    # serve
    Target(
        "repro.serve.server:Server.run",
        "serve.run",
        op=lambda a, k: a[0].pool.method,
        counts=lambda a, k, r: {
            "requests": len(r.outcomes),
            "batches": len(r.batches),
        },
    ),
    Target("repro.serve.workload:generate_requests", "serve.gen"),
    Target("repro.serve.replica:build_pool", "serve.build_pool"),
    # bench.parallel + guard (run_grid delegates guarded grids to guard)
    Target(
        "repro.bench.parallel:run_grid",
        "grid",
        counts=lambda a, k, r: {"cells": len(_arg(a, k, 1, "configs"))},
    ),
    # cache
    Target(
        "repro.cache.store:CompilationCache.lookup",
        "cache.lookup",
        counts=lambda a, k, r: {"lookups": 1, "hits": int(r is not None)},
    ),
    Target("repro.cache.store:CompilationCache.store", "cache.store"),
    # verify
    Target("repro.verify.oracles:check_case", "verify.check"),
    *(
        Target(f"repro.verify.oracles:{name}", f"verify.oracle.{name}")
        for name in ORACLES
    ),
)


# -- metrics -------------------------------------------------------------------


@dataclass
class SpanStats:
    """Aggregate of one span name over a traced repetition."""

    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    #: Inclusive durations per op id.
    by_op: dict = field(default_factory=dict)

    def op_durations(self, op: Any) -> list[float]:
        return self.by_op.get(op, [])


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how it is computed and where it must move."""

    name: str
    unit: str
    #: Workload whose end-to-end metric this layer moves; the traced run
    #: fails if the metric's span records no call there.
    home: str
    span: str
    value: Callable[[dict], float]
    #: Op id the nonzero-call check looks for (``None``: any call).
    op: Any = None
    better: str = "lower"


def _get(stats: dict, span: str) -> SpanStats:
    return stats.get(span, SpanStats())


def _self_s(span: str) -> Callable[[dict], float]:
    return lambda st: _get(st, span).self_s


def _calls(span: str) -> Callable[[dict], float]:
    return lambda st: float(_get(st, span).calls)


def _count(span: str, key: str) -> Callable[[dict], float]:
    return lambda st: float(_get(st, span).counts.get(key, 0))


def _per(span: str, key: str, scale: float) -> Callable[[dict], float]:
    def value(st: dict) -> float:
        s = _get(st, span)
        n = s.counts.get(key, 0)
        return s.self_s / n * scale if n else 0.0

    return value


def _inclusive(span: str, op: Any) -> Callable[[dict], float]:
    return lambda st: sum(_get(st, span).op_durations(op))


def _p50_ms(span: str, op: Any) -> Callable[[dict], float]:
    def value(st: dict) -> float:
        durations = _get(st, span).op_durations(op)
        return statistics.median(durations) * 1e3 if durations else 0.0

    return value


def _hit_ratio(st: dict) -> float:
    s = _get(st, "cache.lookup")
    n = s.counts.get("lookups", 0)
    return s.counts.get("hits", 0) / n if n else 0.0


METRICS: tuple[LayerMetric, ...] = (
    *(
        LayerMetric(
            f"nn.{short}_s.{fn}", "s", "train",
            f"nn.{short}.{fn}", _self_s(f"nn.{short}.{fn}"),
        )
        for fn in FUNCTIONS
        for short in ("fwd", "bwd")
    ),
    LayerMetric(
        "nn.autograd_self_s", "s", "train",
        "nn.autograd", _self_s("nn.autograd"),
    ),
    LayerMetric(
        "nn.sgd_step_s", "s", "train",
        "nn.sgd_step", _self_s("nn.sgd_step"),
    ),
    LayerMetric(
        "nn.evaluate_s", "s", "train",
        "nn.evaluate", _self_s("nn.evaluate"),
    ),
    *(
        LayerMetric(
            f"nn.step_ms_p50.{m}", "ms", "train",
            "nn.train_step", _p50_ms("nn.train_step", m), op=m,
        )
        for m in METHODS
    ),
    LayerMetric(
        "nn.steps", "count", "train",
        "nn.train_step", _calls("nn.train_step"),
    ),
    *(
        LayerMetric(
            f"train.method_s.{m}", "s", "train",
            "train.method", _inclusive("train.method", m), op=m,
        )
        for m in METHODS
    ),
    LayerMetric(
        "ipu.lower_s", "s", "compile",
        "ipu.lower", _self_s("ipu.lower"),
    ),
    LayerMetric(
        "ipu.vertices", "count", "compile",
        "ipu.lower", _count("ipu.lower", "vertices"),
    ),
    LayerMetric(
        "ipu.lower_us_per_vertex", "us", "compile",
        "ipu.lower", _per("ipu.lower", "vertices", 1e6),
    ),
    LayerMetric(
        "ipu.compile_s", "s", "compile",
        "ipu.compile", _self_s("ipu.compile"),
    ),
    LayerMetric(
        "ipu.plan_s", "s", "compile",
        "ipu.plan", _self_s("ipu.plan"),
    ),
    LayerMetric(
        "ipu.liveness_s", "s", "compile",
        "ipu.liveness", _self_s("ipu.liveness"),
    ),
    LayerMetric(
        "ipu.graphs", "count", "compile",
        "ipu.compile", _calls("ipu.compile"),
    ),
    LayerMetric(
        "ipu.compile_us_per_vertex", "us", "compile",
        "ipu.compile", _per("ipu.compile", "vertices", 1e6),
    ),
    *(
        LayerMetric(
            f"compile.artefact_s.{a}", "s", "compile",
            "compile.artefact", _inclusive("compile.artefact", a), op=a,
        )
        for a in ARTEFACTS
    ),
    LayerMetric(
        "ipu.estimate_s", "s", "compile",
        "ipu.estimate", _self_s("ipu.estimate"),
    ),
    LayerMetric(
        "ipu.estimate_us_per_vertex", "us", "compile",
        "ipu.estimate", _per("ipu.estimate", "vertices", 1e6),
    ),
    LayerMetric(
        "ipu.run_s", "s", "fuzz",
        "ipu.run", _self_s("ipu.run"),
    ),
    LayerMetric(
        "gpu.cost_s", "s", "compile",
        "gpu.cost", _self_s("gpu.cost"),
    ),
    LayerMetric(
        "serve.run_s", "s", "serve",
        "serve.run", _self_s("serve.run"),
    ),
    LayerMetric(
        "serve.us_per_request", "us", "serve",
        "serve.run", _per("serve.run", "requests", 1e6),
    ),
    LayerMetric(
        "serve.batches", "count", "serve",
        "serve.run", _count("serve.run", "batches"),
    ),
    LayerMetric(
        "serve.gen_s", "s", "serve",
        "serve.gen", _self_s("serve.gen"),
    ),
    LayerMetric(
        "serve.build_pool_s", "s", "serve",
        "serve.build_pool", _self_s("serve.build_pool"),
    ),
    LayerMetric(
        "grid.self_s", "s", "fuzz",
        "grid", _self_s("grid"),
    ),
    LayerMetric(
        "grid.cells", "count", "fuzz",
        "grid", _count("grid", "cells"),
    ),
    LayerMetric(
        "grid.ms_per_cell", "ms", "fuzz",
        "grid", _per("grid", "cells", 1e3),
    ),
    LayerMetric(
        "cache.lookup_s", "s", "fuzz",
        "cache.lookup", _self_s("cache.lookup"),
    ),
    LayerMetric(
        "cache.store_s", "s", "fuzz",
        "cache.store", _self_s("cache.store"),
    ),
    LayerMetric(
        "cache.hit_ratio", "ratio", "fuzz",
        "cache.lookup", _hit_ratio, better="higher",
    ),
    *(
        LayerMetric(
            f"verify.oracle_s.{o}", "s", "fuzz",
            f"verify.oracle.{o}", _self_s(f"verify.oracle.{o}"),
        )
        for o in ORACLES
    ),
    LayerMetric(
        "verify.checks", "count", "fuzz",
        "verify.check", _calls("verify.check"),
    ),
)

#: Reported by ``bench.py`` from traced vs untraced repetitions.
OVERHEAD_METRIC = ("trace.overhead", "ratio")


def span_stats(spans) -> dict[str, SpanStats]:
    """Per-name calls, self time, counters and per-op durations.

    Spans arrive in completion order (children before their parent), so
    one pass with a per-depth accumulator of finished child time gives
    every span's self time.
    """
    stats: dict[str, SpanStats] = {}
    child_s: dict[int, float] = {}
    for span in spans:
        covered = child_s.pop(span.depth + 1, 0.0)
        child_s[span.depth] = child_s.get(span.depth, 0.0) + span.duration_s
        s = stats.setdefault(span.name, SpanStats())
        s.calls += 1
        s.self_s += span.duration_s - covered
        attrs = dict(span.attributes)
        s.by_op.setdefault(attrs.pop("op", None), []).append(span.duration_s)
        for key, amount in attrs.items():
            s.counts[key] = s.counts.get(key, 0) + amount
    return stats


def layer_metrics(stats: dict[str, SpanStats]) -> dict[str, float]:
    """Every metric of :data:`METRICS`, by name."""
    return {m.name: float(m.value(stats)) for m in METRICS}


def silent_layers(stats: dict[str, SpanStats], workload: str) -> list[str]:
    """Metrics homed on *workload* whose span recorded no call there."""
    silent = []
    for m in METRICS:
        if m.home != workload:
            continue
        s = _get(stats, m.span)
        calls = s.calls if m.op is None else len(s.op_durations(m.op))
        if calls == 0:
            silent.append(m.name)
    return silent


# -- patching ------------------------------------------------------------------


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _namespaces():
    """Every mutable binding site: module globals and class dicts."""
    for module in _repro_modules():
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


class DefinitionError(RuntimeError):
    """A declared entry point no longer exists where the benchmark says."""


def _resolve(path: str) -> Callable:
    module_name, qualname = path.split(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise DefinitionError(f"layer entry point {path} not found") from exc


class Patched:
    """Context manager: every binding of every target wrapped, then restored."""

    def __init__(self, tracer, targets: tuple[Target, ...] = TARGETS) -> None:
        self.tracer = tracer
        self.targets = targets
        self.current_op: Any = None
        #: original -> wrapper
        self.wrappers: dict[Callable, Callable] = {}

    def _wrap(self, original: Callable, target: Target) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer_op = self.current_op
            if target.op is not None:
                self.current_op = target.op(args, kwargs)
            try:
                with tracer.span(target.span, op=self.current_op) as span:
                    result = original(*args, **kwargs)
                    if target.counts is not None:
                        span.attributes.update(
                            target.counts(args, kwargs, result)
                        )
            finally:
                self.current_op = outer_op
            return result

        wrapper.__bench_original__ = original
        return wrapper

    def __enter__(self) -> "Patched":
        try:
            for target in self.targets:
                original = _resolve(target.path)
                if original in self.wrappers:
                    raise DefinitionError(f"{target.path} listed twice")
                self.wrappers[original] = self._wrap(original, target)
            _rebind(self.wrappers)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        # A reverse scan also catches wrappers that modules imported while
        # patched copied into their own namespaces.
        _rebind({w: o for o, w in self.wrappers.items()})

    def __exit__(self, *exc: object) -> None:
        self._restore()


def _rebind(mapping: dict) -> None:
    """Replace every binding of a key of *mapping* by its value."""
    for space in _namespaces():
        for key, value in list(vars(space).items()):
            if _hashable(value) and value in mapping:
                setattr(space, key, mapping[value])
            elif isinstance(value, dict):
                _rebind_records(value, mapping)


def _rebind_records(table: dict, mapping: dict) -> None:
    """Dataclass records in a module-level dict (the oracle registry)."""
    for key, record in list(table.items()):
        if not dataclasses.is_dataclass(record) or isinstance(record, type):
            continue
        changes = {
            f.name: mapping[getattr(record, f.name)]
            for f in dataclasses.fields(record)
            if _hashable(getattr(record, f.name))
            and getattr(record, f.name) in mapping
        }
        if changes:
            table[key] = dataclasses.replace(record, **changes)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def leftover_wrappers() -> list[str]:
    """Bindings in loaded ``repro`` modules that still hold a wrapper."""
    found = []
    for space in _namespaces():
        for key, value in vars(space).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{space.__name__}.{key}")
            elif isinstance(value, dict):
                for record in value.values():
                    if dataclasses.is_dataclass(record) and any(
                        hasattr(getattr(record, f.name), "__bench_original__")
                        for f in dataclasses.fields(record)
                    ):
                        found.append(f"{space.__name__}.{key}")
    return found
