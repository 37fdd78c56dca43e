"""Benchmark-suite helpers.

Every bench regenerates one paper artefact (table or figure series), times
it with pytest-benchmark, and writes the rendered text artefact to
``benchmarks/output/`` so the reproduction is inspectable after a run.

Each bench also runs under a fresh tracer + metric registry, and
``save_artefact`` emits a machine-readable ``repro.run/1`` JSON manifest
next to every ``.txt`` artefact — the per-run data point of the perf
trajectory, diffable with ``python -m repro regress`` (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import pathlib

import pytest

from repro import obs
from repro.cache import cache_section, get_cache

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def artefact_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(autouse=True)
def _observed_run():
    """Install a tracer + metric registry around every bench test."""
    with obs.tracing() as tracer, obs.collecting() as registry:
        yield tracer, registry


@pytest.fixture
def save_artefact(artefact_dir, _observed_run):
    """Write benchmarks/output/<name>.txt + <name>.json and echo it.

    The ``.json`` sibling is a ``repro.run/1`` manifest built from the
    test's tracer and metric registry at save time, plus a ``cache``
    section when the test installed a compilation cache.
    """
    tracer, registry = _observed_run

    def _save(name: str, text: str) -> None:
        path = artefact_dir / f"{name}.txt"
        path.write_text(text + "\n")
        manifest = obs.build_manifest(
            name,
            registry=registry,
            tracer=tracer,
            sections={"cache": cache_section(get_cache())},
        )
        manifest_path = obs.write_manifest(
            manifest, artefact_dir / f"{name}.json"
        )
        print(f"\n{text}\n[saved to {path}; manifest {manifest_path}]")

    return _save
