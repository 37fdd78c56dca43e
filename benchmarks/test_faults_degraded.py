"""Bench: regenerate the degraded-tile tolerance sweep.

The paper's memory argument restated as resilience: the footprint a
butterfly/pixelfly parameterisation saves is headroom the runtime can
spend absorbing dead tiles (round-robin fold onto the survivors), so
compressed SHL models keep fitting on a GC200 that has lost most of its
tiles while the dense baseline OOMs much earlier.  See
docs/RESILIENCE.md.
"""

import pytest

from repro.experiments.chaos import degraded_tile_sweep
from repro.ipu.machine import GC200

METHODS = ("Baseline", "Butterfly", "Pixelfly")


@pytest.fixture(scope="module")
def table():
    return degraded_tile_sweep(methods=METHODS, dim=2048, batch=50)


def _dead_by_method(table):
    return {row[0]: row[2] for row in table.rows}


def test_degraded_tile_sweep(benchmark, table, save_artefact):
    benchmark.pedantic(
        lambda: degraded_tile_sweep(
            methods=("Baseline", "Butterfly"), dim=512, batch=16
        ),
        rounds=1,
        iterations=1,
    )
    assert len(table.rows) == len(METHODS)
    save_artefact("faults_degraded_tiles", table.render())


def test_every_method_fits_healthy(table):
    assert all(dead >= 0 for dead in _dead_by_method(table).values())


def test_compressed_models_survive_more_dead_tiles(table):
    dead = _dead_by_method(table)
    assert dead["Butterfly"] > dead["Baseline"]
    assert dead["Pixelfly"] > dead["Baseline"]


def test_butterfly_survives_nearly_the_whole_device(table):
    # At dim=2048 the butterfly SHL model folds onto a few dozen tiles:
    # over 95 % of the GC200 can die before it stops fitting.
    dead = _dead_by_method(table)
    assert dead["Butterfly"] / GC200.n_tiles > 0.95
