"""Greedy delta-debugging: minimise a failing case to a tiny reproducer.

Classic ddmin adapted to :class:`~repro.verify.gen.Case` structure: a
fixed catalogue of simplifying edits (drop a layer, step a dimension
down the size ladder, shrink the batch, strip spec and run-config
fields back to defaults) is applied greedily — an edit is kept whenever
the oracle still fails on the edited case — until no edit preserves the
failure.  Structurally invalid candidates (a shrunken dim breaking a
power-of-two constraint, say) are detected by attempting to build the
model and skipped.

Minimal reproducers are written to the committed corpus under
``tests/corpus/`` as ``repro.verify/1`` JSON documents;
``tests/verify/test_corpus_replay.py`` re-runs every stored entry.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Callable, Iterator

from repro.verify.gen import (
    DIMS,
    Case,
    LayerSpec,
    RunConfig,
    build_model,
    case_from_dict,
    case_to_dict,
)
from repro.verify.oracles import OracleFailure, check_case

__all__ = [
    "CORPUS_SCHEMA",
    "load_corpus",
    "make_predicate",
    "shrink",
    "write_reproducer",
]

#: Schema tag of stored reproducers.
CORPUS_SCHEMA = "repro.verify/1"

#: Candidate evaluations :func:`shrink` may spend on one case.
MAX_EVALS = 400


def _ladder_down(value: int) -> int | None:
    """The largest ladder entry strictly below *value*, if any."""
    lower = [d for d in DIMS if d < value]
    return lower[-1] if lower else None


def _with_layer(case: Case, i: int, layer: LayerSpec) -> Case:
    layers = list(case.layers)
    layers[i] = layer
    return dataclasses.replace(case, layers=tuple(layers))


def _candidates(case: Case) -> Iterator[Case]:
    """Simplifying edits of *case*, most aggressive first."""
    # Drop whole layers (keep at least one).
    if len(case.layers) > 1:
        for i in range(len(case.layers)):
            layers = case.layers[:i] + case.layers[i + 1 :]
            yield dataclasses.replace(case, layers=layers)
    # Shrink the batch and the input width.
    if case.batch > 1:
        yield dataclasses.replace(case, batch=1)
    lower = _ladder_down(case.in_features)
    if lower is not None:
        yield dataclasses.replace(case, in_features=lower)
    # Per-layer simplifications.
    for i, layer in enumerate(case.layers):
        if layer.out_features:
            lower = _ladder_down(layer.out_features)
            if lower is not None:
                yield _with_layer(
                    case, i, dataclasses.replace(layer, out_features=lower)
                )
        if layer.activation != "none":
            yield _with_layer(
                case, i, dataclasses.replace(layer, activation="none")
            )
        if layer.nblocks != 1:
            yield _with_layer(
                case, i, dataclasses.replace(layer, nblocks=1)
            )
        if layer.rank != 1:
            yield _with_layer(case, i, dataclasses.replace(layer, rank=1))
        if not layer.increasing_stride:
            yield _with_layer(
                case, i, dataclasses.replace(layer, increasing_stride=True)
            )
    # Strip the run config back to the quiet defaults.
    run = case.run
    if run.faulted or run.fault_seed is not None:
        yield dataclasses.replace(
            case,
            run=dataclasses.replace(
                run,
                fault_seed=None,
                transient_rate=0.0,
                ecc_rate=0.0,
                stall_rate=0.0,
            ),
        )
    if run.jobs != 1:
        yield dataclasses.replace(
            case, run=dataclasses.replace(run, jobs=1)
        )
    if run.plan_memory:
        yield dataclasses.replace(
            case, run=dataclasses.replace(run, plan_memory=False)
        )
    if not run.cache:
        yield dataclasses.replace(
            case, run=dataclasses.replace(run, cache=True)
        )
    # Strip the device spec back to a small default.
    if case.excluded_tiles:
        yield dataclasses.replace(case, excluded_tiles=())
    if case.n_tiles != 8 and not case.excluded_tiles:
        yield dataclasses.replace(case, n_tiles=8)
    if case.tile_memory_kib != 624:
        yield dataclasses.replace(
            case, tile_memory_kib=624, reserved_tile_kib=16
        )


def _valid(case: Case) -> bool:
    """Structural validity probe: the model must be constructible."""
    if case.excluded_tiles and max(case.excluded_tiles) >= case.n_tiles:
        return False
    if len(case.excluded_tiles) >= case.n_tiles:
        return False
    try:
        build_model(case)
    except Exception:  # noqa: BLE001 — any constructor error means invalid
        return False
    return True


def make_predicate(oracle: str) -> Callable[[Case], str | None]:
    """A predicate returning the failure detail when *oracle* still fails."""

    def predicate(case: Case) -> str | None:
        try:
            check_case(case, oracles=[oracle])
        except OracleFailure as exc:
            return exc.detail
        except Exception as exc:  # noqa: BLE001 — crashes count as failures
            return f"crash: {type(exc).__name__}: {exc}"
        return None

    return predicate


def shrink(
    case: Case, predicate: Callable[[Case], str | None]
) -> tuple[Case, int, str]:
    """Greedily minimise *case* while *predicate* keeps failing.

    Returns ``(minimal_case, accepted_steps, final_detail)``.  The
    original case must fail the predicate.  :data:`MAX_EVALS` bounds the
    total number of candidate evaluations, so shrinking always terminates
    quickly even on pathological cases.
    """
    detail = predicate(case)
    if detail is None:
        raise ValueError("shrink() requires a case that fails the predicate")
    # Only accept candidates that fail the same *way* — an oracle
    # disagreement must not drift into an unrelated crash (or vice
    # versa) mid-shrink, or the reproducer stops reproducing the
    # original finding.
    want_crash = detail.startswith("crash:")
    steps = 0
    evals = 0
    improved = True
    while improved and evals < MAX_EVALS:
        improved = False
        for candidate in _candidates(case):
            evals += 1
            if evals > MAX_EVALS:
                break
            if not _valid(candidate):
                continue
            candidate_detail = predicate(candidate)
            if candidate_detail is None:
                continue
            if candidate_detail.startswith("crash:") != want_crash:
                continue
            case = candidate
            detail = candidate_detail
            steps += 1
            improved = True
            break
    return case, steps, detail


# -- the committed corpus ------------------------------------------------------


def write_reproducer(
    corpus_dir: str | pathlib.Path,
    case: Case,
    oracle: str,
    detail: str,
    shrink_steps: int,
    plant: str | None = None,
) -> pathlib.Path:
    """Store a minimal reproducer; returns the written path.

    ``plant`` records which planted bug (if any) produced the failure:
    the replay test asserts such entries *pass* on the clean tree and
    *fail* again with the plant active, pinning the oracle's power.
    """
    corpus_dir = pathlib.Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema": CORPUS_SCHEMA,
        "oracle": oracle,
        "detail": detail,
        "seed": case.seed,
        "index": case.index,
        "shrink_steps": shrink_steps,
        "case": case_to_dict(case),
    }
    if plant is not None:
        entry["plant"] = plant
    path = corpus_dir / f"{oracle}-s{case.seed}-i{case.index}.json"
    path.write_text(
        json.dumps(entry, indent=2, sort_keys=True) + "\n"
    )
    return path


def load_corpus(
    corpus_dir: str | pathlib.Path,
) -> list[tuple[pathlib.Path, dict, Case]]:
    """Every stored reproducer as ``(path, entry, case)``, sorted by name."""
    corpus_dir = pathlib.Path(corpus_dir)
    loaded = []
    for path in sorted(corpus_dir.glob("*.json")):
        entry = json.loads(path.read_text())
        if entry.get("schema") != CORPUS_SCHEMA:
            raise ValueError(
                f"{path} has schema {entry.get('schema')!r}; expected "
                f"{CORPUS_SCHEMA!r}"
            )
        loaded.append((path, entry, case_from_dict(entry["case"])))
    return loaded


def _run_config_repr(run: RunConfig) -> str:
    parts = []
    if run.jobs != 1:
        parts.append(f"jobs={run.jobs}")
    if run.plan_memory:
        parts.append("planned")
    if not run.cache:
        parts.append("no-cache")
    if run.faulted:
        parts.append(f"faults(seed={run.fault_seed})")
    return ",".join(parts) or "quiet"


def describe(case: Case) -> str:
    """One-line human summary of a (typically shrunken) case."""
    layers = "+".join(
        layer.kind
        + (f"({layer.out_features})" if layer.out_features else "")
        for layer in case.layers
    )
    return (
        f"batch={case.batch} in={case.in_features} {layers} "
        f"tiles={case.n_tiles}@{case.tile_memory_kib}KiB "
        f"[{_run_config_repr(case.run)}]"
    )
