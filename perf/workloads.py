"""The four benchmark workloads, their golden outputs and the output check.

A workload is split into a set-up phase (imports plus any inputs built once)
and one timed repetition made of *units*: short calls timed one by one
(a training method, one artefact size, one serving method, one oracle on
one fuzz case).
Each repetition runs in a fresh interpreter (see ``rep.py``), so set-up here
is what a user pays on every launch.  Every repetition of a seed runs the
same inputs, so units repeat and ``bench.py`` can take each unit's median
time, relative to the reference clock, over a run.

Only the standard library is imported at module level: ``bench.py`` reads
the workload names without importing numpy or ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

#: Golden outputs are committed for these seeds (1 is held out of tuning).
GOLDEN_SEEDS = (0, 1)

# Sizes keep one repetition near 1-5 s, so a 30-s run times every unit
# 5-20 times and its median is steady (README.md).

#: ``table4.run`` arguments of the train workload.
TRAIN_ARGS = dict(epochs=1, n_train=800, n_test=200)

#: Largest N of the fig5/fig6/fig7 sweeps (their default goes to 2**12).
COMPILE_MAX_N = 2**11

#: Independent open-loop streams per serve repetition (simulated time),
#: and requests per stream.  Eight short runs per method instead of one
#: long one: a 20k-request run takes ~0.2-0.7 s and the host's speed moves
#: within it, where the reference clock cannot see; the error of a sum of
#: 24 short units, each next to a reference sample, is ~3x smaller.
SERVE_STREAMS = 8
SERVE_REQUESTS = 2_500

#: Cases per fuzz repetition, by :func:`case_class`, in proportion to each
#: class's share of the generator's stream: over the first 1000 cases of
#: seeds 0-9, grid 10.1%, grid1 2.0%, affine 17.1%, faulted 23.3% and
#: plain 47.6% (``test_bench`` re-measures them).  A ``jobs=2`` case's grid
#: oracle spawns workers and costs ~30x a plain case, so an unstratified
#: run's time swings with the binomial count of grid cases (+-25% from
#: seed to seed at 100 cases); fixed quotas keep the mix of every
#: repetition at the stream's mean.
FUZZ_QUOTAS = (
    ("grid", 5),
    ("grid1", 1),
    ("affine", 8),
    ("faulted", 12),
    ("plain", 24),
)

#: Relative tolerance for golden floats: simulated time must not move.
RTOL = 1e-9

Unit = tuple[str, Callable[[], Any]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    #: What one unit of ``items_per_s`` is on this workload.
    item: str
    #: Work items per repetition.
    items: int
    #: ``seed -> state``: imports and inputs, timed as set-up.
    setup: Callable[[int], Any]
    #: ``state -> [(unit, call)]``: the timed repetition.
    units: Callable[[Any], list[Unit]]
    #: ``{unit: result or exception} -> {op: plain output}``.
    outputs: Callable[[dict], dict]


# -- helpers -------------------------------------------------------------------


def plain(obj: Any) -> Any:
    """Dataclasses, tuples and numpy scalars as plain JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item):
        return obj.item()
    return obj


def _error(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def digest(outputs: dict) -> str:
    """Content hash of a repetition's outputs."""
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def mismatches(got: Any, want: Any, path: str = "") -> list[str]:
    """Differences between two plain values; floats within :data:`RTOL`."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [
            diff
            for key in want
            for diff in mismatches(got[key], want[key], f"{path}.{key}")
        ]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            diff
            for i, (g, w) in enumerate(zip(got, want))
            for diff in mismatches(g, w, f"{path}[{i}]")
        ]
    numbers = (int, float)
    if (
        (isinstance(want, float) or isinstance(got, float))
        and isinstance(got, numbers)
        and isinstance(want, numbers)
        and not isinstance(got, bool)
        and not isinstance(want, bool)
    ):
        if math.isnan(want) and math.isnan(got):
            return []
        if abs(got - want) <= RTOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


# -- train ---------------------------------------------------------------------


def _train_setup(seed: int) -> dict:
    from repro.datasets import load_cifar10
    from repro.experiments import table4
    from repro.experiments.config import METHODS

    return {
        "seed": seed,
        "load": load_cifar10,
        "run_method": table4.run_method,
        "methods": METHODS,
    }


def _train_units(state: dict) -> list[Unit]:
    """``table4.run``, one unit per step: the data, then each method."""
    data: dict = {}

    def load() -> None:
        data["train"], data["test"] = state["load"](
            n_train=TRAIN_ARGS["n_train"],
            n_test=TRAIN_ARGS["n_test"],
            seed=state["seed"],
        )

    def method(name: str) -> Callable[[], Any]:
        return lambda: state["run_method"](
            name, data["train"], data["test"], epochs=TRAIN_ARGS["epochs"]
        )

    return [("data", load)] + [(m, method(m)) for m in state["methods"]]


def _train_outputs(raw: dict) -> dict:
    return {
        unit: _error(row) if isinstance(row, Exception) else plain(row)
        for unit, row in raw.items()
        if unit != "data" or isinstance(row, Exception)
    }


# -- compile -------------------------------------------------------------------

#: Artefacts of the compile workload.
ARTEFACTS = ("fig5", "fig6", "fig7", "generations")

#: Result rows each unit (one size, or one device generation) produces.
ROWS_PER_UNIT = {"fig5": 1, "fig6": 3, "fig7": 3, "generations": 1}


def _row_key(artefact: str, row: Any) -> str:
    if artefact == "fig5":
        return f"fig5/{row.n}"
    if artefact == "fig6":
        return f"fig6/{row.device}/{row.n}"
    if artefact == "fig7":
        return f"fig7/{row.layer}/{row.n}"
    return f"generations/{row.spec.name}"


def _compile_setup(seed: int) -> dict:
    import importlib

    return {
        name: importlib.import_module(f"repro.experiments.{name}")
        for name in ARTEFACTS
    }


def compile_sizes(module) -> list[int]:
    """A sweep's default sizes up to :data:`COMPILE_MAX_N`."""
    return [n for n in module.default_sizes() if n <= COMPILE_MAX_N]


def _compile_runs(modules: dict) -> list[Unit]:
    """Each artefact's ``run``: the sweeps to ``COMPILE_MAX_N``, and the
    generation comparison on GC2 (GC200's largest-matmul search alone
    takes ~2 s)."""
    from repro.ipu.machine import GC2

    runs: list[Unit] = [
        (name, lambda m=modules[name]: m.run(sizes=compile_sizes(m)))
        for name in ("fig5", "fig6", "fig7")
    ]
    generations = modules["generations"]
    runs.append(("generations", lambda: generations.run(specs=(GC2,))))
    return runs


def _compile_units(modules: dict) -> list[Unit]:
    """:func:`_compile_runs` split into one unit per size."""
    from repro.ipu.machine import GC2

    units: list[Unit] = []
    for name in ("fig5", "fig6", "fig7"):
        module = modules[name]
        for n in compile_sizes(module):
            units.append((f"{name}/{n}", lambda m=module, n=n: m.run(sizes=[n])))
    generations = modules["generations"]
    units.append(("generations/GC2", lambda: generations.run(specs=(GC2,))))
    return units


def _compile_outputs(raw: dict) -> dict:
    outputs = {}
    for unit, rows in raw.items():
        artefact = unit.split("/")[0]
        if isinstance(rows, Exception):
            for i in range(ROWS_PER_UNIT[artefact]):
                outputs[f"{unit}#{i}"] = _error(rows)
            continue
        for row in rows:
            outputs[_row_key(artefact, row)] = plain(row)
    return outputs


# -- serve ---------------------------------------------------------------------

#: Serve result fields that do not depend on the request stream.
SERVE_SEED_FREE = (
    "method",
    "dim",
    "batch_rows",
    "budget_bytes",
    "replica_bytes",
    "n_replicas",
    "service_s",
    "requests",
)


def _serve_scenarios(seed: int) -> list:
    """The ``--smoke`` scenario of each stream; stream *k* of *seed* has
    scenario seed ``seed * SERVE_STREAMS + k``."""
    from repro.serve import ServeScenario

    return [
        ServeScenario(
            method="dense",
            n_requests=SERVE_REQUESTS,
            seed=seed * SERVE_STREAMS + k,
        )
        for k in range(SERVE_STREAMS)
    ]


def _serve_setup(seed: int) -> dict:
    """Generate every request stream once, build the three pools, and
    give each (stream, method) a server with fresh replica state.

    Mirrors :func:`repro.serve.serve_worker`, split so that only
    ``Server.run`` is timed; the golden outputs come from
    ``serve_worker`` itself, which checks that the split is faithful.
    """
    from repro.serve import SERVE_METHODS
    from repro.serve.batcher import BatchPolicy
    from repro.serve.replica import Replica, build_pool
    from repro.serve.server import ServeConfig, Server, death_schedule
    from repro.serve.workload import WorkloadSpec, generate_requests

    scenarios = _serve_scenarios(seed)
    sc = scenarios[0]
    pools = [
        build_pool(
            method,
            sc.dim,
            sc.batch_rows,
            sc.budget_bytes,
            depth=sc.depth,
            max_replicas=sc.max_replicas,
            seed=0,
        )
        for method in SERVE_METHODS
    ]
    runs = []
    for k, sc in enumerate(scenarios):
        requests = generate_requests(
            WorkloadSpec(
                seed=sc.seed,
                n_requests=sc.n_requests,
                rate_rps=sc.rate_rps,
                arrival=sc.arrival,
                rows_min=1,
                rows_max=min(4, sc.batch_rows),
                slo_s=sc.slo_ms / 1e3,
            )
        )
        for pool in pools:
            config = ServeConfig(
                batch_policy=BatchPolicy(
                    max_batch_rows=sc.batch_rows,
                    max_delay_s=sc.max_delay_ms / 1e3,
                ),
                queue_max_requests=sc.queue_max_requests,
                deaths=death_schedule(
                    sc.seed,
                    pool.n_replicas,
                    sc.n_deaths,
                    sc.n_requests / sc.rate_rps,
                ),
            )
            # A run mutates its replicas; the compiled module is shared.
            fresh = dataclasses.replace(
                pool,
                replicas=[Replica(index=i) for i in range(pool.n_replicas)],
            )
            runs.append(
                (f"{pool.method}/{k}", Server(pool=fresh, config=config), requests)
            )
    return {"runs": runs}


def _serve_units(state: dict) -> list[Unit]:
    return [
        (op, lambda s=server, r=requests: s.run(r))
        for op, server, requests in state["runs"]
    ]


def _serve_result(result: dict) -> dict:
    return plain({k: v for k, v in result.items() if k != "batches"})


def _serve_outputs(raw: dict) -> dict:
    return {
        op: (
            _error(result)
            if isinstance(result, Exception)
            else _serve_result(result.as_dict())
        )
        for op, result in raw.items()
    }


# -- fuzz ----------------------------------------------------------------------


def case_class(case) -> str:
    """The stratification class of a generated fuzz case.

    A ``jobs=2`` case's grid oracle runs one cell per distinct batch in
    ``{1, min(batch, 2)}``, so ``grid1`` cases spawn one worker and
    ``grid`` cases two.
    """
    if case.run.jobs > 1:
        return "grid" if case.batch >= 2 else "grid1"
    if all(layer.activation == "none" for layer in case.layers):
        return "affine"
    if case.run.faulted:
        return "faulted"
    return "plain"


def fuzz_cases(seed: int) -> list:
    """The first quota of each class from stream *seed*, in index order."""
    from repro.verify.gen import generate_case

    quotas = dict(FUZZ_QUOTAS)
    chosen = []
    index = 0
    while any(quotas.values()):
        case = generate_case(seed, index)
        name = case_class(case)
        if quotas[name]:
            quotas[name] -= 1
            chosen.append(case)
        index += 1
    return chosen


def _fuzz_setup(seed: int) -> dict:
    from repro.verify.oracles import ORACLES, OracleFailure, check_case

    def verdict(case, oracle: str) -> str:
        """One oracle on one case, classified as ``run_fuzz`` does."""
        try:
            check_case(case, oracles=[oracle])
        except OracleFailure:
            return "fail"
        except Exception:  # noqa: BLE001 — a crash is a finding too
            return "crash"
        return "ok"

    return {"oracles": ORACLES, "verdict": verdict, "cases": fuzz_cases(seed)}


def _fuzz_units(state: dict) -> list[Unit]:
    """One unit per applicable oracle of each case.

    ``run_fuzz`` stops a case at its first disagreement, so a case with a
    finding would skip its remaining oracles (often the ~0.3 s grid
    oracle) and make the work depend on the seed; one oracle per call
    runs every applicable oracle on every case.
    """

    def one(case, oracle: str) -> Callable[[], Any]:
        return lambda: (case, state["verdict"](case, oracle))

    return [
        (f"{case.index}/{name}", one(case, name))
        for case in state["cases"]
        for name, oracle in state["oracles"].items()
        if oracle.applies(case)
    ]


def _fuzz_outputs(raw: dict) -> dict:
    """Per case: its class and each applicable oracle's verdict."""
    outputs: dict = {}
    for unit, result in raw.items():
        index, oracle = unit.split("/")
        if isinstance(result, Exception):
            outputs[index] = _error(result)
            continue
        case, verdict = result
        entry = outputs.setdefault(
            index, {"class": case_class(case), "verdicts": {}}
        )
        if "error" not in entry:
            entry["verdicts"][oracle] = verdict
    return outputs


# -- registry ------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train",
            why="table4 SHL training of 6 weight parameterisations at dim "
            "1024: nn autograd and kernels do ~80% of the work",
            item="training samples",
            items=6 * TRAIN_ARGS["epochs"] * TRAIN_ARGS["n_train"],
            setup=_train_setup,
            units=_train_units,
            outputs=_train_outputs,
        ),
        Workload(
            name="compile",
            why="fig5, fig6 and fig7 sweeps to N=2048 and the GC2 "
            "generation row: graph lowering, compile_graph and estimate, "
            "no autograd",
            item="result rows",
            # fig5 7 + fig6 15 + fig7 15 + generations 1 rows.
            items=38,
            setup=_compile_setup,
            units=_compile_units,
            outputs=_compile_outputs,
        ),
        Workload(
            name="serve",
            why="8 open-loop Poisson streams of 2.5k requests through the "
            "serving event loop for dense, butterfly and pixelfly replica "
            "pools",
            item="simulated requests",
            items=3 * SERVE_STREAMS * SERVE_REQUESTS,
            setup=_serve_setup,
            units=_serve_units,
            outputs=_serve_outputs,
        ),
        Workload(
            name="fuzz",
            why="differential fuzzer: many tiny graphs where per-call "
            "overhead dominates, plus the spawned jobs=2 grid oracle",
            item="fuzz cases",
            items=sum(q for _, q in FUZZ_QUOTAS),
            setup=_fuzz_setup,
            units=_fuzz_units,
            outputs=_fuzz_outputs,
        ),
    )
}


def run_units(units: list[Unit], clock) -> tuple[dict, dict, dict]:
    """Call every unit; returns ``({unit: result or exception}, {unit: s},
    {unit: reference s})``.

    A unit's reference time is the faster of the *clock* samples taken
    just before and just after it (see ``refclock.PERIOD_S``).  A unit
    that raises fails its own ops only.
    """
    import time

    from refclock import PERIOD_S

    raw, seconds, reference = {}, {}, {}
    pending: list[str] = []
    last = clock.sample()
    last_at = time.perf_counter()
    for i, (name, call) in enumerate(units):
        start = time.perf_counter()
        try:
            raw[name] = call()
        except Exception as exc:  # noqa: BLE001 — recorded as failed ops
            raw[name] = exc
        end = time.perf_counter()
        seconds[name] = end - start
        pending.append(name)
        if end - last_at >= PERIOD_S or i == len(units) - 1:
            now = clock.sample()
            for done in pending:
                reference[done] = min(last, now)
            pending, last, last_at = [], now, time.perf_counter()
    return raw, seconds, reference


# -- golden outputs ------------------------------------------------------------


def golden_outputs(name: str, seed: int) -> dict:
    """Reference outputs from each subsystem's public one-call entry point."""
    if name == "train":
        from repro.experiments import table4

        rows = table4.run(seed=seed, **TRAIN_ARGS)
        return _train_outputs({row.method: row for row in rows})
    if name == "compile":
        return {
            _row_key(artefact, row): plain(row)
            for artefact, run in _compile_runs(_compile_setup(seed))
            for row in run()
        }
    if name == "serve":
        from repro.serve import SERVE_METHODS, serve_worker

        return {
            f"{method}/{k}": _serve_result(
                serve_worker(dataclasses.replace(sc, method=method).as_config())
            )
            for k, sc in enumerate(_serve_scenarios(seed))
            for method in SERVE_METHODS
        }
    if name == "fuzz":
        from repro.verify import run_fuzz
        from repro.verify.oracles import ORACLES

        from refclock import ReferenceClock

        state = _fuzz_setup(seed)
        outputs = _fuzz_outputs(
            run_units(_fuzz_units(state), ReferenceClock())[0]
        )
        # The per-oracle split must agree with one all-oracle run per case.
        for case in state["cases"]:
            report = run_fuzz(seed=seed, cases=1, start=case.index)
            verdicts = outputs[str(case.index)]["verdicts"]
            first = next(
                (o for o in ORACLES if verdicts.get(o, "ok") != "ok"), None
            )
            whole = report.failures[0].oracle if report.failures else None
            if first is not None and verdicts[first] == "crash":
                first = "crash"
            if whole != first:
                raise AssertionError(
                    f"fuzz case {case.index}: per-oracle verdict {first} "
                    f"!= run_fuzz verdict {whole}"
                )
        return outputs
    raise ValueError(f"unknown workload {name!r}")


def golden_key(name: str, seed: int, op: str) -> str:
    """``<workload>/<seed>/<op>``; compile has no seed, so it is ``*``."""
    return f"{name}/{'*' if name == 'compile' else seed}/{op}"


def build_golden() -> dict:
    """Every golden output, keyed by :func:`golden_key`."""
    golden = {}
    for name in WORKLOADS:
        for seed in GOLDEN_SEEDS[:1] if name == "compile" else GOLDEN_SEEDS:
            for op, output in golden_outputs(name, seed).items():
                golden[golden_key(name, seed, op)] = output
    return golden


def dump_golden(golden: dict) -> str:
    """One op per line, so a changed output is a one-line diff."""
    entries = [
        f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in golden.items()
    ]
    return "{\n" + ",\n".join(entries) + "\n}\n"


def _invariants(name: str, output: dict, reference: dict | None) -> list[str]:
    """Checks for ops without a golden output; *reference* is seed 0's."""
    if name in ("train", "serve") and reference is None:
        return ["no golden output for seed 0"]
    if name == "train":
        problems = mismatches(
            {k: v for k, v in output.items() if k != "accuracy"},
            {k: v for k, v in reference.items() if k != "accuracy"},
        )
        if not 0.0 <= output["accuracy"] <= 1.0:
            problems.append(f"accuracy {output['accuracy']} outside [0, 1]")
        return problems
    if name == "serve":
        problems = mismatches(
            {k: output[k] for k in SERVE_SEED_FREE},
            {k: reference[k] for k in SERVE_SEED_FREE},
        )
        settled = output["completed"] + output["failed"] + sum(
            output["shed"].values()
        )
        if settled != output["requests"]:
            problems.append(
                f"{settled} requests settled of {output['requests']}"
            )
        if output["on_time"] > output["completed"]:
            problems.append("more requests on time than completed")
        if len(output["replicas"]) != output["n_replicas"]:
            problems.append("replica list does not match n_replicas")
        return problems
    if name == "fuzz":
        grid_ran = "grid_manifest" in output["verdicts"]
        if grid_ran != output["class"].startswith("grid"):
            return ["grid_manifest ran iff the case is a jobs=2 case: no"]
        return []
    return ["no golden output"]


def check(name: str, seed: int, outputs: dict, golden: dict) -> list[str]:
    """One problem string per failed op; empty when every op is correct.

    Ops of a golden seed must match its golden output.  Other seeds are
    checked against the seed-independent part of seed 0's output plus
    invariants of the seed-dependent part.
    """
    problems = []
    for op, output in outputs.items():
        if "error" in output:
            problems.append(f"{name} {op}: {output['error']}")
            continue
        expected = golden.get(golden_key(name, seed, op))
        if expected is not None:
            diffs = mismatches(output, expected)
        else:
            diffs = _invariants(
                name, output, golden.get(golden_key(name, 0, op))
            )
        if diffs:
            problems.append(f"{name} {op}: {'; '.join(diffs[:3])}")
    return problems


if __name__ == "__main__":
    # ``python perf/workloads.py PATH`` writes every golden output to PATH;
    # ``bench.py --write-golden`` runs it with the repetitions' environment.
    import pathlib
    import sys

    pathlib.Path(sys.argv[1]).write_text(dump_golden(build_golden()))
