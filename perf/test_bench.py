"""Self-test of the benchmark: ``python -m pytest perf -q`` (not tier-1).

Runs every workload at a tiny size through the same repetition code the
benchmark uses, traced and untraced, and checks the declared metric names,
the golden comparison, the restoration of every wrapped binding, and that
nothing is written outside the output directory.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import refclock  # noqa: E402
import rep  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WATCHED = [ROOT / "benchmarks" / "output", ROOT / "benchmarks" / "cache"]


def _snapshot() -> dict:
    return {
        str(path): path.stat().st_mtime_ns
        for root in WATCHED
        if root.exists()
        for path in sorted(root.rglob("*"))
    }


@pytest.fixture(scope="module", autouse=True)
def untouched_outputs():
    """The benchmark never writes the repo's artefact or cache dirs."""
    before = _snapshot()
    yield
    assert _snapshot() == before


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload; the code path stays the benchmark's own."""
    from repro.experiments import fig5, fig6, fig7

    monkeypatch.setattr(
        workloads, "TRAIN_ARGS", dict(epochs=1, n_train=60, n_test=20)
    )
    monkeypatch.setattr(workloads, "SERVE_STREAMS", 2)
    monkeypatch.setattr(workloads, "SERVE_REQUESTS", 300)
    monkeypatch.setattr(
        workloads, "FUZZ_QUOTAS",
        tuple((name, min(q, 1)) for name, q in workloads.FUZZ_QUOTAS),
    )
    monkeypatch.setattr(fig5, "default_sizes", lambda: [32, 64])
    monkeypatch.setattr(fig6, "default_sizes", lambda: [128])
    monkeypatch.setattr(fig7, "default_sizes", lambda: [128])


def _run(workload: str, golden: dict, trace: bool, tmp_path) -> dict:
    return rep.run_rep(
        workload, 0, time.monotonic(), golden, tmp_path, trace=trace
    )


# -- declarations --------------------------------------------------------------


def test_benchmark_json_declares_the_code_metrics():
    assert DECLARED["paths"] == ["perf"]
    assert DECLARED["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in bench.E2E
    ]
    name, unit = layers.OVERHEAD_METRIC
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.METRICS
    ] + [{"name": name, "unit": unit, "better": "lower"}]


def test_layer_catalogue_matches_the_program():
    from repro.experiments.config import METHODS
    from repro.verify.oracles import ORACLES

    assert list(layers.METHODS) == list(METHODS)
    assert list(layers.ORACLES) == list(ORACLES)
    assert set(workloads.ROWS_PER_UNIT) == set(workloads.ARTEFACTS)


def test_committed_golden_covers_every_workload_and_seed():
    golden = json.loads(rep.GOLDEN.read_text())
    ops_per_rep = {
        "train": 6,
        "compile": 38,
        "serve": 3 * workloads.SERVE_STREAMS,
        "fuzz": 50,
    }
    for name in workloads.WORKLOADS:
        seeds = (0,) if name == "compile" else workloads.GOLDEN_SEEDS
        for seed in seeds:
            prefix = workloads.golden_key(name, seed, "")
            ops = [key for key in golden if key.startswith(prefix)]
            assert len(ops) == ops_per_rep[name], (name, seed)


def test_fuzz_quotas_follow_the_generator_stream():
    """Each quota is its class's share of the stream, to the nearest case."""
    from collections import Counter

    from repro.verify.gen import generate_case

    counts = Counter(
        workloads.case_class(generate_case(seed, index))
        for seed in range(10)
        for index in range(1000)
    )
    total = sum(quota for _, quota in workloads.FUZZ_QUOTAS)
    for name, quota in workloads.FUZZ_QUOTAS:
        assert abs(quota - total * counts[name] / 10_000) < 1, name


def test_mismatches_tolerance():
    assert workloads.mismatches({"a": 1.0}, {"a": 1.0 + 1e-12}) == []
    assert workloads.mismatches({"a": 1.0}, {"a": 1.0 + 1e-6})
    assert workloads.mismatches({"a": 1}, {"a": 2})
    assert workloads.mismatches({"a": True}, {"a": 1})
    assert workloads.mismatches([1, 2], [1])


def test_units_take_the_faster_neighbouring_reference_sample():
    class Clock:
        samples = iter([1.0, 3.0, 2.0])

        def sample(self):
            return next(self.samples)

    def fail():
        raise ValueError("planted")

    units = [
        ("a", fail),
        ("b", lambda: time.sleep(refclock.PERIOD_S)),
        ("c", lambda: "c"),
    ]
    raw, seconds, reference = workloads.run_units(units, Clock())
    assert isinstance(raw["a"], ValueError) and raw["c"] == "c"
    assert seconds["b"] >= refclock.PERIOD_S
    assert reference == {"a": 1.0, "b": 1.0, "c": 2.0}


def test_throughput_cancels_the_host_speed():
    def record(speed: float) -> dict:
        return {
            "items": 10,
            "unit_s": {"x": 0.2 / speed, "y": 0.3 / speed},
            "unit_ref_s": {"x": 0.001 / speed, "y": 0.002 / speed},
        }

    fast = bench.items_per_s([record(1.0)])
    assert bench.items_per_s([record(0.5)]) == pytest.approx(fast)
    assert fast == pytest.approx(10 / (refclock.REFERENCE_S * (200 + 150)))


def test_span_stats_self_time():
    from repro.obs.tracer import SpanRecord

    spans = [  # completion order: children first
        SpanRecord("child", "", "host", 0.1, 0.2, depth=1),
        SpanRecord("child", "", "host", 0.4, 0.3, depth=1),
        SpanRecord("parent", "", "host", 0.0, 1.0, depth=0, attributes={"op": "x"}),
        SpanRecord("child", "", "host", 1.5, 0.5, depth=0),
    ]
    stats = layers.span_stats(spans)
    assert stats["parent"].self_s == pytest.approx(0.5)
    assert stats["child"].self_s == pytest.approx(1.0)
    assert stats["child"].calls == 3
    assert stats["parent"].op_durations("x") == [1.0]


# -- repetitions at a tiny size ------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_repetition_matches_public_entry_point(workload, tiny, tmp_path):
    golden = {
        workloads.golden_key(workload, 0, op): output
        for op, output in workloads.golden_outputs(workload, 0).items()
    }
    result = _run(workload, golden, False, tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == len(golden)
    key = next(iter(golden))
    planted = {**golden, key: {**golden[key], "planted": 1}}
    assert _run(workload, planted, False, tmp_path)["failed"] == 1


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_repetition_reports_every_layer_and_restores(
    workload, tiny, tmp_path
):
    targets = {t.path: layers._resolve(t.path) for t in layers.TARGETS}
    from repro.verify.oracles import ORACLES

    checks = {name: o.check for name, o in ORACLES.items()}
    result = _run(workload, {}, True, tmp_path)
    assert set(result["layers"]) == {m.name for m in layers.METRICS}
    assert result["silent"] == []
    assert result["leftover_wrappers"] == []
    assert {t.path: layers._resolve(t.path) for t in layers.TARGETS} == targets
    assert {n: o.check for n, o in ORACLES.items()} == checks
    from repro.ipu import compiler, memplan

    assert compiler._plan_memory is memplan.plan_memory
    trace = json.loads((tmp_path / f"{workload}.trace.json").read_text())
    assert trace["traceEvents"]


def test_patching_reaches_aliases_and_modules_imported_later():
    from repro.ipu import compiler, memplan
    from repro.obs import Tracer

    original = memplan.plan_memory
    with layers.Patched(Tracer()) as patched:
        assert compiler._plan_memory is patched.wrappers[original]
        assert memplan.plan_memory is compiler._plan_memory
        sys.modules.pop("repro.experiments.fig5_alias", None)
        alias = type(sys)("repro.experiments.fig5_alias")
        alias.plan = memplan.plan_memory
        sys.modules[alias.__name__] = alias
    try:
        assert alias.plan is original
        assert compiler._plan_memory is original
        assert layers.leftover_wrappers() == []
    finally:
        del sys.modules[alias.__name__]


def test_missing_entry_point_fails_loudly():
    from repro.obs import Tracer

    target = layers.Target("repro.ipu.compiler:no_such_function", "x")
    with pytest.raises(layers.DefinitionError):
        with layers.Patched(Tracer(), targets=(target,)):
            pass
    assert layers.leftover_wrappers() == []


# -- the command line ----------------------------------------------------------


def test_command_prints_result_and_writes_only_under_out(tmp_path):
    src = ROOT / "src"
    before = sorted(p for p in src.rglob("*") if "__pycache__" in p.parts)
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", "fuzz",
         "--seed", "5", "--seconds", "1", "--trace", "0",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert sorted(p for p in src.rglob("*") if "__pycache__" in p.parts) == before
    assert (tmp_path / "pycache").is_dir()


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perf", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perf/bench.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
