"""One benchmark repetition in a fresh interpreter (started by ``bench.py``).

Sets up one workload, times one repetition, checks the outputs against
``golden.json`` and prints one JSON line.  Set-up time runs from the
parent's launch of this process (``--launched-at``, a ``time.monotonic``
reading, which is system-wide on Linux) to the end of set-up, imports
included.  The reference clock (``refclock.py``) is sampled right after
set-up and between the timed units, so ``bench.py`` can normalise both.

With ``--trace`` the layer entry points are wrapped before set-up (so
serve's request generation and pool builds are attributed too), the
spans are written to ``<out>/<workload>.trace.json`` and the per-layer
metrics are added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import sys
import time

import layers
import workloads
from refclock import ReferenceClock

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"

#: Exit code for a broken benchmark definition (not a program failure).
EXIT_DEFINITION = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS), required=True
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def run_rep(
    workload: str,
    seed: int,
    launched_at: float,
    golden: dict,
    out: pathlib.Path,
    *,
    trace: bool = False,
    setup_only: bool = False,
) -> dict:
    """Set up and time one repetition; returns the result record."""
    wl = workloads.WORKLOADS[workload]
    patched = contextlib.nullcontext()
    tracer = None
    if trace:
        from repro.obs import Tracer

        tracer = Tracer()
        patched = layers.Patched(tracer)
    with patched:
        state = wl.setup(seed)
        setup_s = time.monotonic() - launched_at
        clock = ReferenceClock()
        result: dict = {
            "workload": workload,
            "seed": seed,
            "setup_s": setup_s,
            "setup_ref_s": min(clock.sample(), clock.sample()),
        }
        if setup_only:
            return result
        raw, unit_s, unit_ref_s = workloads.run_units(wl.units(state), clock)
    outputs = wl.outputs(raw)
    problems = workloads.check(workload, seed, outputs, golden)

    import numpy

    result.update(
        unit_s=unit_s,
        unit_ref_s=unit_ref_s,
        wall_s=sum(unit_s.values()),
        items=wl.items,
        attempted=len(outputs),
        failed=len(problems),
        problems=problems[:20],
        digest=workloads.digest(outputs),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=numpy.__version__,
    )
    if tracer is not None:
        stats = layers.span_stats(tracer.spans)
        result["layers"] = layers.layer_metrics(stats)
        result["silent"] = layers.silent_layers(stats, workload)
        result["leftover_wrappers"] = layers.leftover_wrappers()
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(tracer, out / f"{workload}.trace.json")
        result["trace_path"] = str(path)
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_rep(
            args.workload,
            args.seed,
            args.launched_at,
            json.loads(GOLDEN.read_text()),
            args.out,
            trace=args.trace,
            setup_only=args.setup_only,
        )
    except layers.DefinitionError as exc:
        print(f"benchmark definition error: {exc}", file=sys.stderr)
        return EXIT_DEFINITION
    print(json.dumps(result))
    if result.get("silent") or result.get("leftover_wrappers"):
        print(
            f"benchmark definition error: no calls on {args.workload} for "
            f"{result['silent']}; wrappers still bound at "
            f"{result['leftover_wrappers']}",
            file=sys.stderr,
        )
        return EXIT_DEFINITION
    return 0


if __name__ == "__main__":
    sys.exit(main())
