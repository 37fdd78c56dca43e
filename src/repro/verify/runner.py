"""The fuzz loop: generate cases, run oracles, shrink failures.

:func:`run_fuzz` drives the whole subsystem: for each ``(seed, index)``
it generates a case, runs every applicable oracle under a ``verify.case``
trace span, counts ``verify.{cases,failures,shrink_steps}`` metrics, and
— when shrinking is enabled — minimises each failure and stores it in
the corpus.  The resulting :class:`FuzzReport` renders as text for the
CLI and contributes the ``verify`` section of ``repro.run/1`` manifests
(:func:`verify_section`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.obs import get_registry, get_tracer
from repro.verify import shrink as shrinkmod
from repro.verify.gen import Case, generate_case
from repro.verify.hooks import plant as make_plant
from repro.verify.oracles import ORACLES, OracleFailure, check_case, check_oracle_names

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz", "verify_section"]


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle disagreement, possibly with its shrunken reproducer."""

    index: int
    oracle: str
    detail: str
    case: Case
    shrunk: Case | None = None
    shrink_steps: int = 0
    corpus_path: str | None = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (rendered by the CLI and the manifest)."""

    seed: int
    n_cases: int
    oracles_run: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)
    plant: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def shrink_steps(self) -> int:
        return sum(f.shrink_steps for f in self.failures)

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} cases={self.n_cases} "
            f"failures={len(self.failures)}"
            + (f" plant={self.plant}" if self.plant else "")
        ]
        lines.append("oracle runs:")
        for name in ORACLES:
            runs = self.oracles_run.get(name, 0)
            lines.append(f"  {name:<22s} x{runs}")
        for failure in self.failures:
            lines.append("")
            lines.append(
                f"FAIL case {failure.index} [{failure.oracle}]: "
                f"{failure.detail}"
            )
            if failure.shrunk is not None:
                lines.append(
                    f"  shrunk in {failure.shrink_steps} steps to: "
                    f"{shrinkmod.describe(failure.shrunk)}"
                )
            if failure.corpus_path:
                lines.append(f"  reproducer: {failure.corpus_path}")
        if self.ok:
            lines.append("all oracles agree")
        return "\n".join(lines)


def verify_section(report: FuzzReport) -> dict:
    """The ``repro.verify/1`` ``verify`` section of a manifest.

    Per-failure entries carry the ``(seed, index)`` coordinates, so any
    failure in a stored manifest regenerates bit-identically with
    ``python -m repro fuzz --seed S --cases 1`` from that index.
    """
    failures = []
    for failure in report.failures:
        entry = {
            "index": int(failure.index),
            "oracle": failure.oracle,
            "detail": failure.detail,
            "shrink_steps": int(failure.shrink_steps),
        }
        if failure.corpus_path:
            entry["reproducer"] = failure.corpus_path
        failures.append(entry)
    section = {
        "schema": "repro.verify/1",
        "seed": int(report.seed),
        "cases": int(report.n_cases),
        "ok": bool(report.ok),
        "oracles_run": {
            name: int(runs) for name, runs in report.oracles_run.items()
        },
        "failures": failures,
        "shrink_steps": int(report.shrink_steps),
    }
    if report.plant:
        section["plant"] = report.plant
    return section


def _check_one(case: Case, oracles: list[str] | None):
    """Run the oracles on one case; returns ``(ran, failure_or_None)``."""
    try:
        ran = check_case(case, oracles=oracles)
        return ran, None
    except OracleFailure as exc:
        return [], (exc.oracle, exc.detail)
    except Exception as exc:  # noqa: BLE001 — a crash is a finding too
        return [], ("crash", f"{type(exc).__name__}: {exc}")


def run_fuzz(
    seed: int = 0,
    cases: int = 50,
    oracles: list[str] | None = None,
    shrink: bool = False,
    corpus_dir=None,
    plant: str | None = None,
    start: int = 0,
) -> FuzzReport:
    """Fuzz ``cases`` generated workloads; returns a :class:`FuzzReport`.

    *oracles* restricts the run to the named oracles (default: all
    applicable ones per case).  With *shrink* set, each failure is
    delta-debugged to a minimal reproducer; with *corpus_dir* also set,
    the reproducer is written there.  *plant* activates a named bug from
    :mod:`repro.verify.hooks` for the whole run (fuzzer self-tests and
    the acceptance gate).
    """
    check_oracle_names(oracles)
    tracer = get_tracer()
    registry = get_registry()
    report = FuzzReport(seed=seed, n_cases=cases, plant=plant)
    planted = make_plant(plant) if plant else contextlib.nullcontext()
    with planted:
        for index in range(start, start + cases):
            case = generate_case(seed, index)
            with tracer.span(
                "verify.case",
                category="verify",
                index=index,
                layers=case.n_layers,
                batch=case.batch,
            ) as span:
                ran, failed = _check_one(case, oracles)
                span.attributes["oracles"] = len(ran)
                registry.counter("verify.cases").inc()
                for name in ran:
                    report.oracles_run[name] = (
                        report.oracles_run.get(name, 0) + 1
                    )
                if failed is None:
                    continue
                span.attributes["failed"] = failed[0]
                registry.counter("verify.failures").inc()
                oracle_name, detail = failed
                shrunk = None
                steps = 0
                corpus_path = None
                if shrink and oracle_name in ORACLES:
                    predicate = shrinkmod.make_predicate(oracle_name)
                    shrunk, steps, detail = shrinkmod.shrink(
                        case, predicate
                    )
                    registry.counter("verify.shrink_steps").inc(steps)
                    if corpus_dir is not None:
                        corpus_path = str(
                            shrinkmod.write_reproducer(
                                corpus_dir,
                                shrunk,
                                oracle_name,
                                detail,
                                steps,
                                plant=plant,
                            )
                        )
                report.failures.append(
                    FuzzFailure(
                        index=index,
                        oracle=oracle_name,
                        detail=detail,
                        case=case,
                        shrunk=shrunk,
                        shrink_steps=steps,
                        corpus_path=corpus_path,
                    )
                )
    return report
