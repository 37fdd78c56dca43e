"""Golden differential for the IPU graph IR, compiler, planner and executor.

``ir_golden.json`` was captured from the object-per-vertex IR that the
column tables replaced.  Every graph below is built, compiled (unplanned,
planned and with excluded tiles), planned, timed and -- where the codelets
can execute -- run, and every simulated number is compared exactly: floats
as ``float.hex``, per-tile arrays as SHA-256 of their float64 bytes.

Regenerate (only when a change moves simulated numbers on purpose)::

    PYTHONPATH=src python tests/ipu/test_ir_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro import nn
from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.liveness import compute_liveness
from repro.ipu.machine import GC2, GC200
from repro.ipu.memplan import plan_memory
from repro.ipu.poplin import (
    MatMulPlan,
    build_blocked_matmul_graph,
    build_matmul_graph,
    choose_grid,
)
from repro.ipu.popsparse import build_spmm_graph
from repro.ipu.poptorch import lower_model
from repro.linalg.sparse import random_sparse
from repro.verify.oracles import codelet_doubles, external_inputs

FIXTURE = pathlib.Path(__file__).with_name("ir_golden.json")
SPECS = {"GC2": GC2, "GC200": GC200}
EXCLUDED = frozenset({0, 3, 17, 700})


def _plain(value):
    """JSON-ready value with every float spelled exactly."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "spec"
        }
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _sha(array) -> str | None:
    if array is None:
        return None
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _model(*layers):
    return layers[0] if len(layers) == 1 else nn.Sequential(*layers)


def graphs():
    """``{case: (graph builder, spec, executable without doubles)}``."""
    cases = {}
    for spec_name, spec in SPECS.items():
        cases[f"{spec_name}/amp_256"] = (
            lambda s=spec: build_matmul_graph(s, 256, 256, 256)[0],
            spec,
            True,
        )
        cases[f"{spec_name}/naive_host_io"] = (
            lambda s=spec: build_matmul_graph(
                s, 96, 80, 200, codelet="MatMulPartialScalar", host_io=True
            )[0],
            spec,
            True,
        )
        # Explicit k-split plan with more cells than tiles, so cells
        # serialise over several supersteps per tile.
        cases[f"{spec_name}/amp_ksplit_serial"] = (
            lambda s=spec: build_matmul_graph(
                s, 200, 150, 96,
                plan=MatMulPlan(200, 150, 96, 64, 32, 3, n_tiles=s.n_tiles),
            )[0],
            spec,
            True,
        )
        cases[f"{spec_name}/blocked_ksplit"] = (
            lambda s=spec: build_blocked_matmul_graph(
                s, 96, 80, 200, block=64
            ),
            spec,
            True,
        )
        cases[f"{spec_name}/blocked_single_phase"] = (
            lambda s=spec: build_blocked_matmul_graph(s, 64, 48, 40, block=64),
            spec,
            True,
        )
    for fmt in ("csr", "coo"):
        cases[f"GC200/spmm_{fmt}"] = (
            lambda f=fmt: build_spmm_graph(
                GC200, random_sparse(300, 200, 0.05, seed=3, fmt=f), 24
            ),
            GC200,
            True,
        )
    models = {
        "linear_relu": lambda: _model(nn.Linear(64, 64, seed=0), nn.ReLU()),
        "lowrank": lambda: _model(nn.LowRankLinear(64, 48, rank=4, seed=0)),
        "butterfly_rect": lambda: _model(
            nn.ButterflyLinear(48, 40, seed=0), nn.Tanh()
        ),
        "butterfly_2blocks": lambda: _model(
            nn.ButterflyLinear(64, 64, nblocks=2, bias=False, seed=0)
        ),
        "pixelfly": lambda: _model(
            nn.PixelflyLinear(64, block_size=16, seed=0), nn.BatchNorm1d(64)
        ),
        "pixelfly_residual": lambda: _model(
            nn.PixelflyLinear(64, block_size=16, residual=True, seed=0)
        ),
        "fastfood": lambda: _model(nn.FastfoodLinear(64, seed=0)),
        "circulant": lambda: _model(nn.CirculantLinear(64, seed=0)),
        "mlp3": lambda: nn.Sequential(
            nn.Linear(64, 64, seed=0),
            nn.ReLU(),
            nn.ButterflyLinear(64, 64, seed=1),
            nn.BatchNorm1d(64),
            nn.Linear(64, 10, seed=2),
        ),
    }
    for name, make in models.items():
        in_features = 48 if name == "butterfly_rect" else 64
        for spec_name, spec in SPECS.items():
            cases[f"{spec_name}/lower_{name}"] = (
                lambda m=make, s=spec, f=in_features: lower_model(
                    m(), s, 8, f
                )[0],
                spec,
                False,
            )
    cases["GC200/lower_linear_host_io"] = (
        lambda: lower_model(
            _model(nn.Linear(32, 16, seed=0)), GC200, 4, 32, host_io=True
        )[0],
        GC200,
        True,
    )
    return cases


def _compile_snapshot(graph, spec, **kwargs) -> dict:
    compiled = compile_graph(graph, spec, check_fit=False, **kwargs)
    memory = compiled.memory
    return {
        "profile": _plain(compiled.profile()),
        "breakdown": _plain(memory.breakdown),
        "per_tile_sha": _sha(memory.per_tile_bytes),
        "no_reuse_sha": _sha(memory.no_reuse_per_tile_bytes),
        "steps": _plain(Executor(compiled).estimate().steps),
    }


def _run_snapshot(graph, spec, plan: bool) -> dict:
    compiled = compile_graph(graph, spec, check_fit=False, plan_memory=plan)
    inputs = external_inputs(graph, seed=0)
    state, report = Executor(compiled).run(inputs, check_aliasing=plan)
    keep = (
        compiled.memory_plan().surviving_variables()
        if plan
        else set(graph.variables)
    )
    return {
        "outputs": {name: _sha(state[name]) for name in sorted(keep)},
        "total_s": float(report.total_s).hex(),
    }


def case_snapshot(name: str) -> dict:
    build, spec, executable = graphs()[name]
    graph = build()
    liveness = compute_liveness(graph)
    plan = plan_memory(graph)
    snap = {
        "unplanned": _compile_snapshot(graph, spec),
        "planned": _compile_snapshot(graph, spec, plan_memory=True),
        "excluded": _compile_snapshot(graph, spec, exclude_tiles=EXCLUDED),
        "liveness": {
            "intervals": _plain(liveness.intervals),
            "always_live": _plain(liveness.always_live),
            "per_step_sha": _sha(liveness.per_step_bytes),
            "per_tile_peak_sha": _sha(liveness.per_tile_peak_bytes),
        },
        "plan": {
            "assignment": plan.assignment,
            "per_tile_sha": _sha(plan.per_tile_bytes),
        },
    }
    if executable:
        snap["run"] = {
            "unplanned": _run_snapshot(graph, spec, plan=False),
            "planned": _run_snapshot(graph, spec, plan=True),
        }
    else:
        with codelet_doubles():
            snap["run"] = {
                "unplanned": _run_snapshot(graph, spec, plan=False),
                "planned": _run_snapshot(graph, spec, plan=True),
            }
    return snap


GRID_DIMS = (1, 7, 64, 1000, 4096, 65536)


def grid_snapshot() -> dict:
    plans = {}
    for spec_name, spec in SPECS.items():
        for m in GRID_DIMS:
            for n in GRID_DIMS:
                for k in GRID_DIMS:
                    p = choose_grid(spec, m, n, k)
                    plans[f"{spec_name}/{m}x{n}x{k}"] = [p.pm, p.pn, p.pk]
    return plans


def snapshot() -> dict:
    return {
        "cases": {name: case_snapshot(name) for name in graphs()},
        "choose_grid": grid_snapshot(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(graphs()))
def test_case_matches_golden(name, golden):
    assert case_snapshot(name) == golden["cases"][name]


def test_cases_cover_golden(golden):
    assert sorted(graphs()) == sorted(golden["cases"])


def test_choose_grid_matches_golden(golden):
    assert grid_snapshot() == golden["choose_grid"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ir_golden.py --write")
    FIXTURE.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
