"""Bench: regenerate Fig 5 (IPU graph structure & memory vs problem size)."""

import pytest

from repro.experiments import fig5


@pytest.fixture(scope="module")
def rows():
    return fig5.run()


def test_fig5_memory_growth(benchmark, rows, save_artefact):
    benchmark.pedantic(
        lambda: fig5.run(sizes=[64, 512]), rounds=1, iterations=1
    )
    # Observation 3: compiled memory always exceeds the raw footprint.
    for row in rows:
        assert row.overhead_ratio > 1.0
    # Free memory shrinks monotonically with problem size.
    free = [r.profile.free_bytes for r in rows]
    assert all(a >= b for a, b in zip(free, free[1:]))
    save_artefact("fig5_memory", fig5.render())


def test_fig5_structure_drives_memory(rows):
    # Across the sweep, graphs with more vertices+edges use more memory.
    big = rows[-1].profile
    small = rows[0].profile
    assert big.n_vertices >= small.n_vertices
    assert big.n_edges >= small.n_edges
    assert big.total_bytes > small.total_bytes


@pytest.fixture(scope="module")
def planner_rows():
    # Serial on purpose: the bench registry must observe the compile.*
    # plan metrics, which a worker-process grid would swallow.
    return fig5.planner_run()


def test_fig5_planner_headroom(planner_rows, save_artefact):
    # The planner's reason to exist: at least one depth overflows tile
    # memory without buffer reuse but compiles (and fits) planned.
    rescued = [
        r
        for r in planner_rows
        if r.fits_planned and not r.fits_no_reuse
    ]
    assert rescued, "no depth was rescued by the memory planner"
    for row in planner_rows:
        assert (
            row.planned.peak_tile_bytes
            <= row.unplanned.peak_tile_bytes
        )
        assert row.reclaimed_fraction > 0.0
    # Reclaimed fraction grows with depth (more dead activations).
    fractions = [r.reclaimed_fraction for r in planner_rows]
    assert fractions[-1] > fractions[0]
    save_artefact(
        "fig5_planner",
        fig5.render_planner(rows=planner_rows),
    )


def test_fig5_planner_numerics_bit_identical(planner_rows):
    # Companion check at an executable size: the slot-aliased executor
    # reproduces the unplanned outputs exactly.
    assert fig5.verify_planner_numerics()
