"""Tests for the liveness analysis."""

import numpy as np
import pytest

from repro import nn
from repro.ipu.graph import Edge, Graph
from repro.ipu.liveness import compute_liveness
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule


def chain_graph(n_stages=4, elements=1000):
    """x -> t0 -> t1 -> ... each temp used exactly once."""
    g = Graph(GC200.n_tiles)
    g.add_variable("x", (elements,))
    prev = "x"
    for i in range(n_stages):
        name = f"t{i}"
        g.add_variable(name, (elements,))
        cs = g.add_compute_set(f"stage{i}")
        g.add_vertices(
            cs, "Copy", [0],
            inputs=[Edge(prev, elements)],
            outputs=[Edge(name, elements)],
        )
        prev = name
    return g


class TestIntervals:
    def test_chain_temporaries_have_short_intervals(self):
        report = compute_liveness(chain_graph(4))
        by_var = {iv.var: iv for iv in report.intervals}
        # t0 defined at step 0, last used at step 1.
        assert by_var["t0"].start == 0
        assert by_var["t0"].end == 1
        # The final temp is never read again: defined and dead at step 3.
        assert by_var["t3"].start == by_var["t3"].end == 3

    def test_external_input_always_live(self):
        report = compute_liveness(chain_graph(3))
        assert report.always_live_bytes == 4000  # x, never written

    def test_peak_below_no_reuse_total(self):
        report = compute_liveness(chain_graph(8))
        assert report.peak_bytes < report.total_bytes
        assert report.reuse_saving > 0.5  # only ~2 temps live at once

    def test_peak_accounts_adjacent_stages(self):
        report = compute_liveness(chain_graph(4, elements=1000))
        # At any stage: x (always) + producer + consumer buffers.
        assert report.peak_bytes == pytest.approx(3 * 4000)

    def test_empty_program(self):
        g = Graph(GC200.n_tiles)
        g.add_variable("w", (10,))
        report = compute_liveness(g)
        assert report.peak_bytes == 40
        assert report.n_steps == 0

    def test_host_io_extends_liveness(self):
        g = Graph(GC200.n_tiles)
        g.add_variable("x", (100,))
        g.add_variable("y", (100,))
        g.add_host_write("x")
        cs = g.add_compute_set("work")
        g.add_vertices(
            cs, "Copy", [0],
            inputs=[Edge("x", 100)],
            outputs=[Edge("y", 100)],
        )
        g.add_host_read("y")
        report = compute_liveness(g)
        by_var = {iv.var: iv for iv in report.intervals}
        assert by_var["x"].start == 0  # defined by host write
        assert by_var["y"].end == 2  # kept alive until host read
        assert report.always_live_bytes == 0


def use_before_def_graph(elements=100):
    """y is read at step 0 but first written at step 1."""
    g = Graph(GC200.n_tiles)
    g.add_variable("y", (elements,))
    g.add_variable("a", (elements,))
    cs0 = g.add_compute_set("read_y")
    g.add_vertices(
        cs0, "Copy", [0],
        inputs=[Edge("y", elements)],
        outputs=[Edge("a", elements)],
    )
    cs1 = g.add_compute_set("write_y")
    g.add_vertices(
        cs1, "Copy", [0],
        inputs=[Edge("a", elements)],
        outputs=[Edge("y", elements)],
    )
    return g


class TestUseBeforeDef:
    """Regression: a variable read before its first in-program def holds
    external data, so its interval must start at step 0 — not at the
    first def, which used to let the planner alias away live bytes."""

    def test_interval_starts_at_program_start(self):
        report = compute_liveness(use_before_def_graph())
        by_var = {iv.var: iv for iv in report.intervals}
        assert by_var["y"].start == 0
        assert by_var["y"].end == 1

    def test_flagged_upward_exposed(self):
        report = compute_liveness(use_before_def_graph())
        by_var = {iv.var: iv for iv in report.intervals}
        assert by_var["y"].upward_exposed
        assert not by_var["y"].def_before_use
        # A normally-defined temp keeps the safe flags.
        assert not by_var["a"].upward_exposed
        assert by_var["a"].def_before_use

    def test_footprint_counted_from_start(self):
        report = compute_liveness(use_before_def_graph(elements=100))
        # Step 0 must already charge y (400) alongside a (400).
        assert report.per_step_bytes[0] == pytest.approx(800)

    def test_write_then_read_is_not_upward_exposed(self):
        report = compute_liveness(chain_graph(2))
        by_var = {iv.var: iv for iv in report.intervals}
        assert all(not iv.upward_exposed for iv in by_var.values())


class TestPerTilePeaks:
    def test_disjoint_layouts_get_disjoint_peaks(self):
        g = Graph(4)
        g.add_variable("a", (100,), home_tile=0, tile_span=2)
        g.add_variable("b", (200,), home_tile=2, tile_span=2)
        report = compute_liveness(g)
        assert report.per_tile_peak_bytes == pytest.approx(
            [200.0, 200.0, 400.0, 400.0]
        )

    def test_spread_variables_share_evenly(self):
        report = compute_liveness(chain_graph(4))
        # Default layout spreads every variable over all tiles, so the
        # per-tile peak is the global peak split evenly.
        assert report.peak_tile_bytes == pytest.approx(
            report.peak_bytes / GC200.n_tiles
        )

    def test_peak_tile_bytes_zero_without_grid(self):
        from repro.ipu.liveness import LivenessReport

        report = LivenessReport(
            intervals=[], per_step_bytes=np.zeros(0), always_live_bytes=0
        )
        assert report.peak_tile_bytes == 0.0


class TestOnLoweredModels:
    def test_butterfly_pingpong_leaves_nothing_to_reclaim(self):
        # The butterfly lowering already ping-pongs two staging buffers, so
        # liveness finds (almost) no further reuse: the peak equals the
        # no-reuse total within one buffer.
        layer = nn.ButterflyLinear(512, 512, bias=False, seed=0)
        module = IPUModule(layer, 512, 128)
        report = compute_liveness(module.graph)
        act_bytes = 128 * 512 * 4
        assert report.total_bytes - report.peak_bytes <= act_bytes
        assert str(report).startswith("LivenessReport")

    def test_mlp_intermediates_are_reusable(self):
        # A deep MLP allocates one activation per layer; liveness shows
        # most of them dead at any step.
        model = nn.Sequential(
            *[
                m
                for i in range(6)
                for m in (nn.Linear(128, 128, seed=i), nn.ReLU())
            ]
        )
        module = IPUModule(model, 128, 64)
        report = compute_liveness(module.graph)
        assert report.reuse_saving > 0.3

    def test_fastfood_longer_pipeline_still_bounded(self):
        layer = nn.FastfoodLinear(256, seed=0)
        module = IPUModule(layer, 256, 64)
        report = compute_liveness(module.graph)
        act_bytes = 64 * 256 * 4
        # Peak live activations stay within a handful of buffers.
        assert report.peak_bytes - report.always_live_bytes < 8 * act_bytes
