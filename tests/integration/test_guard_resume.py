"""Resumed supervised grids reproduce an uninterrupted run bit-for-bit.

A small fig6 grid runs under supervision with a journal; one journal
entry is then deleted to simulate a run killed mid-grid, and the grid
is resumed.  The resumed run must execute only the missing cell and its
rows, metrics and manifest must equal the uninterrupted run's — the
only legitimate difference is the guard section's ``journal_hits``.
"""

import copy

from repro import guard, obs
from repro.cache import CompilationCache, cache_section, caching
from repro.experiments import fig6
from repro.guard import GuardPolicy

SIZES = [128, 256]
DEVICES = ("ipu",)

WALL_CLOCK_KEYS = ("host", "trace", "hot_spans")


def _run_with(policy, cache_dir):
    with obs.tracing() as tracer, obs.collecting() as registry, caching(
        CompilationCache(path=cache_dir)
    ) as cache, guard.reporting() as reports:
        rows = fig6.run(SIZES, devices=DEVICES, jobs=2, guard=policy)
        manifest = obs.build_manifest(
            "fig6-guard-resume",
            registry=registry,
            tracer=tracer,
            seed=0,
            sections={
                "cache": cache_section(cache),
                "guard": guard.guard_section(reports),
            },
        )
    return rows, manifest, reports


def _strip_volatile(manifest: dict) -> dict:
    stripped = copy.deepcopy(manifest)
    for key in WALL_CLOCK_KEYS:
        stripped.pop(key, None)
    # journal_hits legitimately differs between a clean and a resumed
    # run; everything else in the guard section must match.
    for grid in stripped["guard"]["grids"]:
        grid["journal_hits"] = 0
    stripped["metrics"] = sorted(
        (
            (entry["name"], tuple(sorted(entry["labels"].items())), entry["value"])
            for entry in stripped["metrics"]
            if entry["type"] == "counter"
        ),
    )
    return stripped


class TestGuardResume:
    def test_resume_manifest_matches_uninterrupted_run(self, tmp_path):
        journal = tmp_path / "journal"
        clean_rows, clean_manifest, _ = _run_with(
            GuardPolicy(journal_dir=journal), tmp_path / "clean-cache"
        )

        # Simulate a mid-grid kill: drop one of the two journal entries.
        entries = sorted(journal.glob("cell-*.npz"))
        assert len(entries) == len(SIZES)
        entries[0].unlink()

        resumed_rows, resumed_manifest, reports = _run_with(
            GuardPolicy(journal_dir=journal, resume=True, retries=0),
            tmp_path / "resume-cache",
        )

        assert resumed_rows == clean_rows
        assert _strip_volatile(resumed_manifest) == _strip_volatile(
            clean_manifest
        )
        # Exactly one cell was re-executed; the other was served from
        # the journal.
        (report,) = reports
        assert report.journal_hits == len(SIZES) - 1
        assert sum(1 for c in report.cells if c.attempts) == 1
        assert resumed_manifest["guard"]["ok"] is True
