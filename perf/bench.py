"""Host wall-clock benchmark of the reproduction: train, compile, serve, fuzz.

Run from the repository root.  Every repetition is a fresh interpreter
(``perf/rep.py``), started one at a time, so no warm cache or lazy set-up
carries over and the load comes from one process (plus the two spawned
workers of the fuzzer's ``jobs=2`` grid oracle).  BLAS is pinned to one
thread, the compilation cache stays off, and everything the benchmark
writes (results, traces, bytecode, temporary files) goes under ``--out``.

A repetition is a list of short timed units, with a fixed reference
kernel timed between them (``refclock.py``).  Throughput is
``items / sum over units of the unit's median normalised time`` across
the repetitions of a run, where a unit's normalised time is its wall time
times ``REFERENCE_S`` over the nearest reference time.  The host's speed
swings by up to 2x for seconds to minutes; the reference runs at the
same moment's speed, so the ratio cancels the swing that no statistic of
wall times alone removes (README.md).  Set-up time is normalised by the
reference timed right after set-up.

Campaign (the default): ``--reps`` rounds; each round runs one repetition
of every workload in turn (train, compile, serve, fuzz, train, ...), once
per set with ``--sets 2``, so slow machine drift lands on every workload
and both sets alike.  Prints every end-to-end metric per set, with the
median, quartiles and count of the per-repetition samples.  With
``--trace`` each round adds one traced repetition per workload, and the
per-layer table compares them with set 0, as the one-workload form does.
Writes ``<out>/ledger.json``::

    python3 perf/bench.py --sets 2 --trace

One workload (the form ``BENCHMARK.json`` declares): repeats it for about
``--seconds`` and prints one JSON object as the last line; ``--trace 1``
alternates untraced and traced repetitions and reports per-layer metrics::

    python3 perf/bench.py --workload serve --seed 3 --seconds 30 --trace 0

``--write-golden`` regenerates ``perf/golden.json`` (seeds 0 and 1).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
import workloads
from refclock import REFERENCE_S

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"

#: Environment variables that size the BLAS thread pools.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up time is the median of at least this many launches per run.
MIN_SETUPS = 3

#: A repetition that runs longer than this is killed and counts as failed.
REP_TIMEOUT_S = 120.0

EXIT_DEFINITION = 3


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric, as declared in ``BENCHMARK.json``."""

    name: str
    unit: str
    better: str
    bound: float


E2E = (
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.05),
)


def unit_costs(record: dict) -> dict[str, float]:
    """Each unit's time in *record*, normalised by the reference clock."""
    return {
        u: REFERENCE_S * s / record["unit_ref_s"][u]
        for u, s in record["unit_s"].items()
    }


def setup_cost(record: dict) -> float:
    """The set-up time of *record*, normalised by the reference clock."""
    return REFERENCE_S * record["setup_s"] / record["setup_ref_s"]


def items_per_s(records: list[dict]) -> float:
    """Items per second at each unit's median normalised time over
    *records*."""
    costs = [unit_costs(r) for r in records]
    total = sum(statistics.median(c[u] for c in costs) for u in costs[0])
    return records[0]["items"] / total


def end_to_end(records: list[dict], setups: list[float]) -> dict[str, dict]:
    """Every end-to-end metric of untraced *records* and normalised set-up
    samples."""
    values = {
        "items_per_s": items_per_s(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
    }
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in E2E}


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    """Every per-layer metric of *traced* records, plus the tracing
    overhead against the untraced *plain* records of the same inputs."""
    metrics = {
        m.name: {
            "value": statistics.median(r["layers"][m.name] for r in traced),
            "unit": m.unit,
        }
        for m in layers.METRICS
    }
    name, unit = layers.OVERHEAD_METRIC
    overhead = items_per_s(plain) / items_per_s(traced) - 1.0
    metrics[name] = {"value": overhead, "unit": unit}
    return metrics


class BenchmarkError(RuntimeError):
    """The benchmark cannot run or its layer map no longer fits the code."""


# -- repetitions ---------------------------------------------------------------


def child_env(out: pathlib.Path) -> dict[str, str]:
    """The environment of every repetition and of the workers it spawns."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    # Bytecode is cached (under --out), as for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(out / "pycache")
    env["TMPDIR"] = str(out / "tmp")
    return env


def run_child(args: list[str], env: dict[str, str]) -> dict | None:
    """Run ``rep.py`` with *args*; its result record, or ``None`` on failure.

    The child gets its own process group, which is killed afterwards, so
    no grid worker outlives its repetition.
    """
    launched_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(REP), *args, "--launched-at", repr(launched_at)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"repetition {args} timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode == EXIT_DEFINITION:
        raise BenchmarkError(f"repetition {args} reported a definition error")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(
            f"repetition {args} failed (exit {proc.returncode})",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def rep_args(
    workload: str, seed: int, out: pathlib.Path, traced: bool = False
) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    return args + (["--trace"] if traced else [])


@dataclass
class Tally:
    """Ops attempted and failed over the repetitions of one workload."""

    workload: str
    attempted: int = 0
    failed: int = 0
    digest: str | None = None

    def add(self, record: dict | None) -> None:
        """Count *record*; outputs that differ from the first repetition's
        (every repetition runs the same inputs) fail all their ops."""
        if record is None:
            self.attempted += 1
            self.failed += 1
            return
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        for problem in record["problems"]:
            print(f"  {problem}", file=sys.stderr)
        self.digest = self.digest or record["digest"]
        if record["digest"] != self.digest:
            print(
                f"  {self.workload}: outputs differ between repetitions",
                file=sys.stderr,
            )
            self.failed += record["attempted"] - record["failed"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one workload (the BENCHMARK.json command) ---------------------------------


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: pathlib.Path,
) -> dict:
    """Repeat *workload* for about *seconds*; the result object printed by
    the ``BENCHMARK.json`` command.

    Untraced runs repeat whole repetitions while the next one is expected
    to end inside the window, then top set-up samples up to
    :data:`MIN_SETUPS` with set-up-only launches.  Traced runs alternate
    untraced and traced repetitions on the same inputs, for the overhead.
    """
    env = child_env(out)
    kinds = (False, True) if trace else (False,)
    plain: list[dict] = []
    traced: list[dict] = []
    tally = Tally(workload)
    start = time.monotonic()
    complete = True
    while complete:
        cycle_start = time.monotonic()
        for is_traced in kinds:
            record = run_child(rep_args(workload, seed, out, is_traced), env)
            tally.add(record)
            if record is None:
                complete = False
                break
            (traced if is_traced else plain).append(record)
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            break

    setups = [setup_cost(r) for r in plain]
    while complete and not trace and len(setups) < MIN_SETUPS:
        record = run_child(rep_args(workload, seed, out) + ["--setup-only"], env)
        if record is None:
            tally.add(None)
            complete = False
            break
        setups.append(setup_cost(record))

    metrics = {}
    if complete and trace:
        metrics = per_layer(plain, traced)
    elif complete:
        metrics = end_to_end(plain, setups)
    for name, entry in metrics.items():
        print(f"{workload:8s} {name:34s} {entry['value']:14.6g} {entry['unit']}")
    return {
        "correct": complete and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }


# -- campaign (the default) ----------------------------------------------------


def machine_facts(numpy_version: str | None) -> dict:
    cpu = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def summarise(records: list[dict]) -> dict:
    """One set: the end-to-end metrics plus per-repetition distributions."""
    setups = [setup_cost(r) for r in records]
    summary = end_to_end(records, setups)
    samples = {
        "items_per_s": [
            r["items"] / sum(unit_costs(r).values()) for r in records
        ],
        "setup_s": setups,
        "peak_rss_mib": [r["peak_rss_mib"] for r in records],
    }
    for name, entry in summary.items():
        q1, med, q3 = quartiles(samples[name])
        entry.update(
            rep_median=med,
            rep_q1=q1,
            rep_q3=q3,
            n=len(records),
            rep_samples=samples[name],
        )
    return summary


def campaign(
    seed: int, reps: int, sets: int, trace: bool, out: pathlib.Path
) -> int:
    """Interleaved repetitions of every workload; prints and writes a ledger."""
    env = child_env(out)
    names = list(workloads.WORKLOADS)
    records = {w: [[] for _ in range(sets)] for w in names}
    traced = {w: [] for w in names}
    tallies = {w: Tally(w) for w in names}
    for rep in range(reps):
        for w in names:
            for s in range(sets + int(trace)):
                is_traced = s == sets
                record = run_child(rep_args(w, seed, out, is_traced), env)
                tallies[w].add(record)
                if record is None:
                    continue
                (traced[w] if is_traced else records[w][s]).append(record)
                print(
                    f"round {rep + 1}/{reps} {w:8s} "
                    f"{'traced' if is_traced else f'set {s}'}: "
                    f"{record['wall_s']:.3f} s, set-up "
                    f"{record['setup_s']:.3f} s",
                    flush=True,
                )

    ledger: dict = {
        "schema": "perf.ledger/1",
        "config": {"seed": seed, "reps": reps, "sets": sets, "trace": trace},
        "workloads": {},
        "per_layer": {},
    }
    numpy_version = None
    for w in names:
        done = [recs for recs in records[w] if recs]
        if done:
            numpy_version = done[0][0]["numpy"]
        tally = tallies[w]
        entry = {
            "item": workloads.WORKLOADS[w].item,
            "sets": [summarise(recs) for recs in done],
            "attempted": tally.attempted,
            "failed": tally.failed,
            "error_rate": tally.failed / max(tally.attempted, 1),
        }
        if len(done) == 2:
            entry["set_gap"] = {
                m.name: abs(
                    entry["sets"][1][m.name]["value"]
                    / entry["sets"][0][m.name]["value"]
                    - 1.0
                )
                for m in E2E
            }
        ledger["workloads"][w] = entry
        if traced[w] and done:
            # Set 0 ran next to the traced repetitions, as many times.
            ledger["per_layer"][w] = per_layer(done[0], traced[w])
    ledger["machine"] = machine_facts(numpy_version)
    path = out / "ledger.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    print(render(ledger))
    print(f"\n[ledger: {path}]")
    failed = sum(t.failed for t in tallies.values())
    return 0 if failed == 0 else 1


def render(ledger: dict) -> str:
    """The campaign's text report."""
    lines = []
    bounds = {m.name: m.bound for m in E2E}
    for w, entry in ledger["workloads"].items():
        lines.append(
            f"\n{w} (items: {entry['item']}; error_rate "
            f"{entry['failed']}/{entry['attempted']} = "
            f"{entry['error_rate']:.3g})"
        )
        lines.append(
            f"  {'metric':14s} {'set':>3s} {'value':>12s} {'rep median':>12s} "
            f"{'rep q1':>12s} {'rep q3':>12s} {'n':>3s} unit"
        )
        for m in E2E:
            for s, summary in enumerate(entry["sets"]):
                v = summary[m.name]
                lines.append(
                    f"  {m.name:14s} {s:3d} {v['value']:12.6g} "
                    f"{v['rep_median']:12.6g} {v['rep_q1']:12.6g} "
                    f"{v['rep_q3']:12.6g} {v['n']:3d} {v['unit']}"
                )
            gap = entry.get("set_gap", {}).get(m.name)
            if gap is not None:
                verdict = "agree" if gap <= bounds[m.name] else "DISAGREE"
                lines.append(
                    f"  {'':14s} set gap {gap:.2%} (bound "
                    f"{bounds[m.name]:.0%}): {verdict}"
                )
    if ledger["per_layer"]:
        tables = ledger["per_layer"]
        homes = {m.name: m.home for m in layers.METRICS}
        lines.append("\nper-layer (traced repetition; _s = self time)")
        lines.append(
            f"  {'metric':34s} {'unit':6s} {'home':8s} "
            + " ".join(f"{w:>11s}" for w in tables)
        )
        for name, entry in next(iter(tables.values())).items():
            lines.append(
                f"  {name:34s} {entry['unit']:6s} {homes.get(name, ''):8s} "
                + " ".join(f"{t[name]['value']:11.4g}" for t in tables.values())
            )
    return "\n".join(lines)


# -- entry point ---------------------------------------------------------------


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload",
        choices=list(workloads.WORKLOADS),
        help="run one workload for --seconds and print a JSON result",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="measuring window of --workload (default 30)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add traced repetitions and the per-layer metrics",
    )
    parser.add_argument(
        "--reps", type=int, default=5, help="campaign rounds (default 5)"
    )
    parser.add_argument(
        "--sets", type=int, default=1, help="interleaved sets (default 1)"
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=HERE / "results",
        help="where everything is written (default perf/results)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="regenerate perf/golden.json and exit",
    )
    args = parser.parse_args(argv)
    if args.reps < 1 or args.sets < 1 or args.seconds <= 0:
        parser.error("--reps, --sets and --seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = args.out.resolve()
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            golden = HERE / "golden.json"
            subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), str(golden)],
                env=child_env(out), cwd=ROOT, check=True,
            )
            print(f"[golden: {golden}]")
            return 0
        if args.workload is None:
            return campaign(
                args.seed, args.reps, args.sets, bool(args.trace), out
            )
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), out
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEFINITION
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
