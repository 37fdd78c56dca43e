"""Differential and metamorphic oracles over generated cases.

Each oracle runs one generated :class:`~repro.verify.gen.Case` through a
*pair* of pipelines that must agree — the CSmith move, applied to this
repo's five independently-correct-looking paths:

``forward_dense`` / ``backward_dense``
    the factored model vs a dense twin built from each layer's
    ``weight_dense()`` materialisation (the paper's equivalence claim);
``metamorphic_linear`` / ``metamorphic_probe``
    superposition of activation-free models, and the identity-matrix
    probe ``layer(I) == W_dense.T`` per structured layer;
``optimizer_reference``
    SGD + nesterov momentum vs an inline reference update (catches the
    pre-PR-6 nesterov formula when re-planted via
    :mod:`repro.verify.hooks`);
``planned_unplanned``
    slot-aliased execution vs private buffers, bit-identical surviving
    variables, plus a from-scratch re-validation of the memory plan
    against the liveness report;
``cached_cold``
    cold compile vs in-memory hit vs fresh-process disk hit — identical
    memory reports, identical OOM outcomes;
``grid_manifest``
    ``jobs=1`` in-process vs ``jobs=2`` guarded-grid execution of the
    same cells — identical results and metric snapshots;
``chaos_recovery``
    seeded-fault execution vs clean execution — bit-identical state,
    full recovery, deterministic replay.

An oracle signals disagreement by raising :class:`OracleFailure`; the
shrinker minimises whatever case triggered it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import nn
from repro.cache import CompilationCache
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.liveness import compute_liveness
from repro.ipu.poptorch import IPUModule
from repro.ipu.vertices import CODELETS, register_codelet
from repro.nn.tensor import Tensor
from repro.obs import MetricRegistry, collecting, get_registry
from repro.verify.gen import Case, build_model, case_from_dict, case_to_dict

__all__ = [
    "ORACLES",
    "Oracle",
    "OracleFailure",
    "check_case",
    "check_oracle_names",
    "check_plan_sound",
    "codelet_doubles",
    "dense_twin",
    "external_inputs",
]


class OracleFailure(AssertionError):
    """Two pipelines that must agree, disagreed."""

    def __init__(self, oracle: str, detail: str) -> None:
        super().__init__(f"[{oracle}] {detail}")
        self.oracle = oracle
        self.detail = detail


# -- shared machinery ----------------------------------------------------------


ESTIMATE_ONLY = (
    "ButterflyStage",
    "BlockSparseMatMul",
    "FWHTStage",
    "FFTStage",
)


def _double_execute(vertex, state):
    """Deterministic stand-in: outputs are a function of all inputs."""
    acc = 0.0
    for edge in vertex.inputs:
        acc += float(np.sum(state[edge.var]))
    for edge in vertex.outputs:
        out = state[edge.var]
        out[...] = np.tanh(acc / (1.0 + out.size)) + 1e-3 * vertex.tile


@contextlib.contextmanager
def codelet_doubles():
    """Temporarily make the estimate-only codelets executable.

    The doubles write input-dependent values over the whole output
    variable, so unsound buffer aliasing or an unrecovered fault shows
    up as divergence rather than silence.
    """
    originals = {name: CODELETS[name] for name in ESTIMATE_ONLY}
    try:
        for codelet in originals.values():
            register_codelet(
                dataclasses.replace(codelet, execute=_double_execute)
            )
        yield
    finally:
        for codelet in originals.values():
            register_codelet(codelet)


def external_inputs(graph, seed: int) -> dict:
    """Seeded values for every variable the program never writes."""
    written = graph.vertex_output_variables()
    for step in graph.program:
        if step.kind == "host_write":
            written.add(step.ref)
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(var.shape)
        for name, var in graph.variables.items()
        if name not in written
    }


def dense_twin(model):
    """The model with every factored layer replaced by its dense twin.

    Twin weights come from ``weight_dense()``; biases are shared values
    (copied), activations are re-instantiated.  By the algebraic
    contract of :mod:`repro.nn.structured`, the twin computes the same
    function — the forward/backward oracles assert exactly that.
    """
    modules = []
    for child in model:
        if hasattr(child, "weight_dense"):
            w = child.weight_dense()
            out_f, in_f = w.shape
            lin = nn.Linear(in_f, out_f, bias=child.bias is not None, seed=0)
            lin.weight.data[...] = w
            if child.bias is not None:
                lin.bias.data[...] = child.bias.data
            modules.append(lin)
        elif isinstance(child, nn.Linear):
            out_f, in_f = child.weight.data.shape
            lin = nn.Linear(in_f, out_f, bias=child.bias is not None, seed=0)
            lin.weight.data[...] = child.weight.data
            if child.bias is not None:
                lin.bias.data[...] = child.bias.data
            modules.append(lin)
        else:
            modules.append(type(child)())
    return nn.Sequential(*modules)


def _case_input(case: Case, salt: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence([case.seed, case.index, salt])
    )
    return rng.standard_normal((case.batch, case.in_features))


def _lowered(case: Case):
    """The case's model lowered onto its generated spec."""
    model = build_model(case)
    spec = case.spec()
    module = IPUModule(model, case.in_features, case.batch, spec=spec)
    return model, spec, module.graph


def _agree(oracle: str, got, want, what: str, atol=1e-7) -> None:
    """``np.testing.assert_allclose``'s verdict, without importing
    ``numpy.testing`` (tens of ms, once per process): equal shapes, or
    one side a scalar, and ``|got - want| <= atol + rtol * |want|``
    elementwise, NaN matching NaN and an infinity its own sign."""
    rtol = 1e-6
    shapes = np.shape(got), np.shape(want)
    shaped = shapes[0] == shapes[1] or () in shapes
    if not (
        shaped
        and np.isclose(got, want, rtol=rtol, atol=atol, equal_nan=True).all()
    ):
        detail = f"Not equal to tolerance rtol={rtol:g}, atol={atol:g}"
        if not shaped:
            detail += f" (shapes {shapes[0]}, {shapes[1]} mismatch)"
        raise OracleFailure(oracle, f"{what} disagrees: {detail}")


# -- dense-equivalence oracles -------------------------------------------------


def forward_dense(case: Case) -> None:
    """Factored forward == dense-twin forward (the paper's claim)."""
    model = build_model(case)
    twin = dense_twin(model)
    x = _case_input(case, 1)
    got = model(Tensor(x)).data
    want = twin(Tensor(x)).data
    _agree("forward_dense", got, want, "forward output")


def backward_dense(case: Case) -> None:
    """Input gradients of the factored model match the dense twin's."""
    model = build_model(case)
    twin = dense_twin(model)
    x = _case_input(case, 2)
    grads = []
    for m in (model, twin):
        xt = Tensor(x.copy(), requires_grad=True)
        out = m(xt)
        weights = Tensor(
            np.random.default_rng(
                np.random.SeedSequence([case.seed, case.index, 4])
            ).standard_normal(out.data.shape)
        )
        (out * weights).sum().backward()
        grads.append(xt.grad)
    _agree("backward_dense", grads[0], grads[1], "input gradient")


def batched_forward(case: Case) -> None:
    """A batch forward is *bit-identical* to per-request forwards.

    The serving micro-batcher packs independent requests into one
    compiled batch and pads the remainder
    (:mod:`repro.serve.batcher`), which is only sound if
    :meth:`IPUModule.forward` gives every row the same bytes it would
    get alone.  Padding to the fixed compiled batch keeps the BLAS call
    shapes identical on both paths, so the comparison is exact equality
    — not allclose.
    """
    model = build_model(case)
    module = IPUModule(
        model, case.in_features, case.batch, spec=case.spec()
    )
    x = _case_input(case, 7)
    batched = module.forward(x)
    rows = [module.forward(x[i : i + 1]) for i in range(case.batch)]
    sequential = np.vstack(rows)
    if not np.array_equal(batched, sequential):
        worst = float(np.max(np.abs(batched - sequential)))
        raise OracleFailure(
            "batched_forward",
            f"batched forward differs from concatenated single-request "
            f"forwards (max |delta| = {worst:.3e})",
        )


def metamorphic_linear(case: Case) -> None:
    """Superposition: activation-free models are affine maps."""
    model = build_model(case)
    x = _case_input(case, 5)
    y = _case_input(case, 6)
    alpha, beta = 0.75, -1.25

    def f(arr):
        return model(Tensor(arr)).data

    f0 = f(np.zeros_like(x))
    lhs = f(alpha * x + beta * y) - f0
    rhs = alpha * (f(x) - f0) + beta * (f(y) - f0)
    _agree("metamorphic_linear", lhs, rhs, "superposition", atol=1e-8)


def metamorphic_probe(case: Case) -> None:
    """Identity probe: ``layer(I) - bias == weight_dense().T`` per layer."""
    model = build_model(case)
    for child in model:
        if not hasattr(child, "weight_dense"):
            continue
        w = child.weight_dense()
        in_f = w.shape[1]
        got = child(Tensor(np.eye(in_f))).data
        if child.bias is not None:
            got = got - child.bias.data
        _agree(
            "metamorphic_probe",
            got,
            w.T,
            f"{type(child).__name__} identity probe",
        )


# -- optimizer oracle ----------------------------------------------------------


def optimizer_reference(case: Case) -> None:
    """Three nesterov-SGD steps vs an inline reference update.

    The reference recomputes ``v = mu*v + g`` and ``d = g + mu*v`` from
    the captured gradients; the two parameter trajectories must agree to
    float round-off.  The formulas coincide on the first step (where
    ``v == g``), so a wrong look-ahead — e.g. the pre-PR-6
    ``(1 + mu) * v`` — only diverges from step two onward; hence three
    steps.
    """
    lr, mu = 0.05, 0.9
    model = build_model(case)
    params = list(model.parameters())
    if not params:
        return
    opt = nn.SGD(params, lr=lr, momentum=mu, nesterov=True)
    shadow = [p.data.copy() for p in params]
    velocity: list[np.ndarray | None] = [None] * len(params)
    for step in range(3):
        x = Tensor(_case_input(case, 40 + step))
        out = model(x)
        weights = Tensor(
            np.random.default_rng(
                np.random.SeedSequence([case.seed, case.index, 50 + step])
            ).standard_normal(out.data.shape)
        )
        opt.zero_grad()
        (out * weights).sum().backward()
        grads = [None if p.grad is None else p.grad.copy() for p in params]
        opt.step()
        for i, g in enumerate(grads):
            if g is None:
                continue
            if velocity[i] is None:
                velocity[i] = g.copy()
            else:
                velocity[i] *= mu
                velocity[i] += g
            shadow[i] -= lr * (g + mu * velocity[i])
        for i, p in enumerate(params):
            if grads[i] is None:
                continue
            if not np.allclose(shadow[i], p.data, rtol=1e-12, atol=1e-12):
                raise OracleFailure(
                    "optimizer_reference",
                    f"nesterov trajectory diverged from the reference "
                    f"update at step {step + 1}, parameter {i} "
                    f"(max |Δ| = "
                    f"{float(np.max(np.abs(shadow[i] - p.data))):.3g})",
                )


# -- compile/plan/execute oracles ----------------------------------------------


def check_plan_sound(graph, plan) -> None:
    """Re-validate a memory plan against a fresh liveness analysis.

    Independent of the planner's own bookkeeping: recomputes liveness
    and checks every shared slot's members have disjoint, ordered live
    ranges, that no non-founding member is upward-exposed, partially
    defined or used before its definition, and that every member fits
    its slot.
    """
    report = compute_liveness(graph)
    intervals = {
        iv.var: iv for iv in (*report.intervals, *report.always_live)
    }
    for slot in plan.slots:
        prev = None
        for position, name in enumerate(slot.members):
            iv = intervals.get(name)
            if iv is None:
                raise OracleFailure(
                    "planned_unplanned",
                    f"slot {slot.index} member {name!r} has no live "
                    "interval",
                )
            if iv.nbytes > slot.nbytes:
                raise OracleFailure(
                    "planned_unplanned",
                    f"{name!r} ({iv.nbytes} B) exceeds slot {slot.index} "
                    f"({slot.nbytes} B)",
                )
            if position > 0:
                if iv.upward_exposed:
                    raise OracleFailure(
                        "planned_unplanned",
                        f"upward-exposed {name!r} reuses slot {slot.index}",
                    )
                if not iv.fully_defined or not iv.def_before_use:
                    raise OracleFailure(
                        "planned_unplanned",
                        f"{name!r} reuses slot {slot.index} without a "
                        "dominating full definition",
                    )
                if prev is not None and iv.start <= prev.end:
                    raise OracleFailure(
                        "planned_unplanned",
                        f"live ranges of {prev.var!r} [{prev.start},"
                        f"{prev.end}] and {name!r} [{iv.start},{iv.end}] "
                        f"overlap in slot {slot.index}",
                    )
            prev = iv


def planned_unplanned(case: Case) -> None:
    """Slot-aliased execution is bit-identical to private buffers."""
    _model, spec, graph = _lowered(case)
    exclude = case.excluded_tiles or None
    planned = compile_graph(
        graph, spec, check_fit=False, exclude_tiles=exclude,
        plan_memory=True,
    )
    unplanned = compile_graph(
        graph, spec, check_fit=False, exclude_tiles=exclude
    )
    inputs = external_inputs(graph, seed=case.seed * 1_000_003 + case.index)
    with codelet_doubles():
        out, _ = Executor(planned).run(inputs, check_aliasing=True)
        ref, _ = Executor(unplanned).run(inputs)
    plan = planned.memory_plan()
    for name in sorted(plan.surviving_variables()):
        if not np.array_equal(out[name], ref[name]):
            raise OracleFailure(
                "planned_unplanned",
                f"surviving variable {name!r} differs between planned "
                "and unplanned execution",
            )
    check_plan_sound(graph, plan)


def cached_cold(case: Case) -> None:
    """Cold compile, memory hit and disk hit return identical artefacts.

    Includes failure parity: a compile that OOMs cold must OOM
    identically when served from the cache.
    """
    def outcome(cache):
        try:
            compiled = compile_graph(
                graph,
                spec,
                check_fit=True,
                exclude_tiles=case.excluded_tiles or None,
                cache=cache,
                plan_memory=case.run.plan_memory,
            )
        except Exception as exc:  # noqa: BLE001 — outcome parity check
            return ("error", type(exc).__name__, str(exc))
        mem = compiled.memory
        return (
            "ok",
            tuple(float(b) for b in mem.per_tile_bytes),
            float(mem.total_bytes),
            bool(mem.fits),
        )

    _model, spec, graph = _lowered(case)
    with tempfile.TemporaryDirectory() as tmp:
        cache = CompilationCache(path=tmp)
        cold = outcome(cache)
        hit = outcome(cache)
        if cache.stats.hits < 1:
            raise OracleFailure(
                "cached_cold",
                f"second compile did not hit the cache: {cache.stats}",
            )
        fresh = CompilationCache(path=tmp)
        disk = outcome(fresh)
        if fresh.stats.hits < 1:
            raise OracleFailure(
                "cached_cold",
                f"fresh cache instance missed the disk tier: "
                f"{fresh.stats}",
            )
    if hit != cold:
        raise OracleFailure(
            "cached_cold", f"memory hit differs from cold: {hit} != {cold}"
        )
    if disk != cold:
        raise OracleFailure(
            "cached_cold", f"disk hit differs from cold: {disk} != {cold}"
        )


# -- parallel-grid oracle ------------------------------------------------------


def _grid_worker(config: dict, seed_seq) -> tuple:
    """Picklable cell: compile + estimate one case variant."""
    case = case_from_dict(config)
    model = build_model(case)
    spec = case.spec()
    module = IPUModule(model, case.in_features, case.batch, spec=spec)
    compiled = compile_graph(
        module.graph, spec, check_fit=False,
        plan_memory=case.run.plan_memory,
    )
    report = Executor(compiled).estimate()
    get_registry().counter("verify.grid.cells").inc()
    return (
        float(compiled.memory.total_bytes),
        float(compiled.memory.peak_tile_bytes),
        float(report.total_s),
    )


def _grid_counters(registry) -> set:
    """Deterministic counter view of a grid leg's metric snapshot.

    Mirrors ``tests/integration/test_parallel_determinism.py``: histogram
    ``sum`` fields differ in the last ulp between in-process accumulation
    and worker-snapshot merging, and under an ambient cache the serial
    leg's one in-process cache and the workers' per-cell caches split
    hits and misses differently, so the comparable surface is the
    non-cache counters.
    """
    return {
        (
            entry["name"],
            tuple(sorted(entry.get("labels", {}).items())),
            entry["value"],
        )
        for entry in registry.snapshot()
        if entry["type"] == "counter"
        and not entry["name"].startswith("cache.")
    }


def grid_manifest(case: Case) -> None:
    """``jobs=1`` vs guarded ``jobs=2``: same results, same metrics."""
    # Lazy: repro.bench.parallel and repro.guard add ~38 ms to the
    # ~400 ms `import repro.verify.oracles`, which perf/'s fuzz workload
    # pays in its set-up (median of 9 fresh interpreters, warm bytecode
    # cache).
    from repro.bench.parallel import run_grid
    from repro.guard import GuardPolicy

    configs = [
        case_to_dict(dataclasses.replace(case, batch=b))
        for b in sorted({1, min(case.batch, 2)})
    ]
    serial_reg = MetricRegistry()
    # jobs=1 runs cells in-process against the *global* registry, so the
    # serial leg installs its private one for the duration.
    with collecting(serial_reg):
        serial = run_grid(
            _grid_worker, configs, jobs=1, seed=case.seed,
            registry=serial_reg, name="verify.grid",
        )
    parallel_reg = MetricRegistry()
    parallel = run_grid(
        _grid_worker, configs, jobs=2, seed=case.seed,
        registry=parallel_reg, guard=GuardPolicy(), name="verify.grid",
    )
    if serial != parallel:
        raise OracleFailure(
            "grid_manifest",
            f"jobs=1 and jobs=2 grid results differ: "
            f"{serial} != {parallel}",
        )
    serial_counters = _grid_counters(serial_reg)
    parallel_counters = _grid_counters(parallel_reg)
    if serial_counters != parallel_counters:
        raise OracleFailure(
            "grid_manifest",
            f"jobs=1 and jobs=2 counter snapshots differ: "
            f"{sorted(serial_counters ^ parallel_counters)}",
        )


# -- chaos oracle --------------------------------------------------------------


def chaos_recovery(case: Case) -> None:
    """Recovered faulted execution is bit-identical to a clean one."""
    _model, spec, graph = _lowered(case)
    compiled = compile_graph(
        graph, spec, check_fit=False, plan_memory=case.run.plan_memory
    )
    inputs = external_inputs(graph, seed=case.seed * 7_777_777 + case.index)
    plan = FaultPlan.from_rates(
        case.run.fault_seed,
        transient_compute=case.run.transient_rate,
        exchange_corruption=case.run.ecc_rate,
        host_stall=case.run.stall_rate,
    )

    def faulted_run():
        injector = FaultInjector(plan)
        state, timing = Executor(compiled, injector=injector).run(inputs)
        return state, timing, injector.report()

    with codelet_doubles():
        clean, _ = Executor(compiled).run(inputs)
        state1, timing1, report1 = faulted_run()
        state2, timing2, report2 = faulted_run()

    if report1.n_injected and not report1.all_recovered:
        raise OracleFailure(
            "chaos_recovery",
            f"unrecovered faults: {report1.n_injected} injected, "
            f"{report1.n_recovered} recovered",
        )
    for name in sorted(clean):
        if not np.array_equal(clean[name], state1[name]):
            raise OracleFailure(
                "chaos_recovery",
                f"recovered state diverged from clean run at {name!r}",
            )
    for name in sorted(state1):
        if not np.array_equal(state1[name], state2[name]):
            raise OracleFailure(
                "chaos_recovery",
                f"faulted replay not deterministic at {name!r}",
            )
    if (report1.n_injected, report1.n_recovered) != (
        report2.n_injected,
        report2.n_recovered,
    ):
        raise OracleFailure(
            "chaos_recovery",
            f"fault ledger not deterministic across replays: "
            f"{report1.n_injected}/{report1.n_recovered} vs "
            f"{report2.n_injected}/{report2.n_recovered}",
        )
    if timing1.retry_s != timing2.retry_s:
        raise OracleFailure(
            "chaos_recovery",
            "recovery time not deterministic across replays",
        )


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Oracle:
    """One differential check: when it applies and how to run it."""

    name: str
    desc: str
    check: Callable[[Case], None]
    applies: Callable[[Case], bool] = lambda case: True


def _all_affine(case: Case) -> bool:
    return all(layer.activation == "none" for layer in case.layers)


#: Every registered oracle, in execution order.
ORACLES: dict[str, Oracle] = {
    o.name: o
    for o in (
        Oracle(
            "forward_dense",
            "factored forward equals the dense-twin forward",
            forward_dense,
        ),
        Oracle(
            "backward_dense",
            "input gradients equal the dense twin's",
            backward_dense,
        ),
        Oracle(
            "batched_forward",
            "batched forward bit-identical to per-request forwards",
            batched_forward,
        ),
        Oracle(
            "metamorphic_linear",
            "superposition holds for activation-free models",
            metamorphic_linear,
            applies=_all_affine,
        ),
        Oracle(
            "metamorphic_probe",
            "identity probe recovers weight_dense per layer",
            metamorphic_probe,
        ),
        Oracle(
            "optimizer_reference",
            "nesterov SGD trajectory matches an inline reference",
            optimizer_reference,
        ),
        Oracle(
            "planned_unplanned",
            "slot-aliased execution bit-identical + plan soundness",
            planned_unplanned,
        ),
        Oracle(
            "cached_cold",
            "cold / memory-hit / disk-hit compiles are identical",
            cached_cold,
            applies=lambda case: case.run.cache,
        ),
        Oracle(
            "grid_manifest",
            "jobs=1 vs guarded jobs=2 grids agree",
            grid_manifest,
            applies=lambda case: case.run.jobs > 1,
        ),
        Oracle(
            "chaos_recovery",
            "recovered faulted run bit-identical to clean",
            chaos_recovery,
            applies=lambda case: case.run.faulted,
        ),
    )
}


def check_oracle_names(names: list[str] | None) -> None:
    """Raise ValueError naming each of *names* not in ORACLES (None: all)."""
    unknown = [name for name in names or () if name not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; choose from {', '.join(ORACLES)}"
        )


def check_case(
    case: Case, oracles: list[str] | None = None
) -> list[str]:
    """Run every applicable oracle on *case*; returns the names run.

    Raises :class:`OracleFailure` on the first disagreement.
    """
    check_oracle_names(oracles)
    ran = []
    for oracle in ORACLES.values():
        if oracles is not None and oracle.name not in oracles:
            continue
        if not oracle.applies(case):
            continue
        oracle.check(case)
        ran.append(oracle.name)
    return ran
