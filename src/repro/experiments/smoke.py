"""The smoke workload behind ``python -m repro report --smoke``."""

from __future__ import annotations

from repro import nn, obs
from repro.cache import cache_section, caching
from repro.ipu.compiler import compile_graph, memory_section
from repro.ipu.executor import Executor
from repro.ipu.liveness import compute_liveness, liveness_section
from repro.ipu.machine import GC200
from repro.ipu.poplin import build_matmul_graph
from repro.ipu.poptorch import IPUModule

__all__ = ["smoke_manifest"]

#: Side of the smoke workload's square matmul; its MLP is half as wide.
SIZE = 256


def smoke_manifest() -> dict:
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
    size = SIZE
    with obs.tracing() as tracer, obs.collecting() as registry, \
            caching() as cache:
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
    return obs.build_manifest(
        "smoke",
        registry=registry,
        tracer=tracer,
        config={"size": size, "spec": GC200.name},
        seed=0,
        sections={
            "memory": memory_section(planned.memory),
            "liveness": liveness_section(liveness),
            "cache": cache_section(cache),
        },
    )
