"""Unit tests for the linear-scan memory planner (repro.ipu.memplan)."""

import numpy as np
import pytest

from repro import nn
from repro.ipu.graph import Edge, Graph
from repro.ipu.liveness import compute_liveness
from repro.ipu.machine import GC200
from repro.ipu.memplan import plan_memory
from repro.ipu.poptorch import IPUModule
from tests.ipu.test_liveness import chain_graph, use_before_def_graph


class TestChainReuse:
    def test_temporaries_ping_pong_two_slots(self):
        # t0 [0,1], t1 [1,2], ...: consecutive temps overlap, so a chain
        # needs exactly two reusable slots plus the pinned input.
        plan = plan_memory(chain_graph(8))
        assert plan.n_slots == 3
        assert plan.n_shared_slots == 2
        assert plan.planned_variable_bytes == 3 * 4000
        assert plan.no_reuse_variable_bytes == 9 * 4000

    def test_adjacent_stages_never_share(self):
        # Producer and consumer of the same step must keep distinct
        # storage (strict free_after < start).
        plan = plan_memory(chain_graph(6))
        for i in range(5):
            assert (
                plan.assignment[f"t{i}"] != plan.assignment[f"t{i + 1}"]
            )

    def test_assignment_covers_every_variable(self):
        g = chain_graph(5)
        plan = plan_memory(g)
        assert set(plan.assignment) == set(g.variables)
        for name, idx in plan.assignment.items():
            assert name in plan.slots[idx].members

    def test_deterministic(self):
        a = plan_memory(chain_graph(7))
        b = plan_memory(chain_graph(7))
        assert a.assignment == b.assignment
        assert [s.members for s in a.slots] == [s.members for s in b.slots]

    def test_accepts_precomputed_liveness(self):
        g = chain_graph(4)
        report = compute_liveness(g)
        assert (
            plan_memory(g, liveness=report).assignment
            == plan_memory(g).assignment
        )


class TestEligibility:
    def test_external_inputs_pinned(self):
        plan = plan_memory(chain_graph(4))
        slot = plan.slots[plan.assignment["x"]]
        assert slot.pinned
        assert slot.members == ("x",)
        assert "x" not in plan.reused_variables()

    def test_upward_exposed_variable_never_reuses(self):
        # y (read before its first def) holds external data at step 0:
        # it must found its own slot, never occupy a freed one.
        plan = plan_memory(use_before_def_graph())
        slot = plan.slots[plan.assignment["y"]]
        assert slot.members[0] == "y"
        assert "y" not in plan.reused_variables()

    def test_partial_first_def_never_reuses(self):
        # o's first def writes only half its elements, so a read could
        # observe a previous occupant's bytes — not reusable.
        g = Graph(GC200.n_tiles)
        for name in ("x", "t0", "t1", "o", "z"):
            g.add_variable(name, (100,))
        steps = [("x", "t0"), ("t0", "t1")]
        for i, (src, dst) in enumerate(steps):
            cs = g.add_compute_set(f"s{i}")
            g.add_vertices(
                cs, "Copy", [0],
                inputs=[Edge(src, 100)],
                outputs=[Edge(dst, 100)],
            )
        cs = g.add_compute_set("partial")
        g.add_vertices(
            cs, "Copy", [0],
            inputs=[Edge("x", 50)],
            outputs=[Edge("o", 50)],  # half of o's 100 elements
        )
        cs = g.add_compute_set("consume")
        g.add_vertices(
            cs, "Copy", [0],
            inputs=[Edge("o", 100)],
            outputs=[Edge("z", 100)],
        )
        plan = plan_memory(g)
        # t0 is dead by the time o is defined, but o is ineligible.
        assert "o" not in plan.reused_variables()
        assert plan.assignment["o"] != plan.assignment["t0"]
        # z, fully defined after t0 died, does reuse.
        assert "z" in plan.reused_variables()

    def test_layout_classes_never_mix(self):
        # Two dead-then-reborn temps with different tile layouts must not
        # share a slot even though their intervals are disjoint.
        g = Graph(8)
        g.add_variable("x", (64,), home_tile=0, tile_span=8)
        g.add_variable("t0", (64,), home_tile=0, tile_span=4)
        g.add_variable("t1", (64,), home_tile=4, tile_span=4)
        g.add_variable("t2", (64,), home_tile=0, tile_span=8)
        prev = "x"
        for i, name in enumerate(["t0", "t1", "t2"]):
            cs = g.add_compute_set(f"s{i}")
            g.add_vertices(
                cs, "Copy", [0],
                inputs=[Edge(prev, 64)],
                outputs=[Edge(name, 64)],
            )
            prev = name
        plan = plan_memory(g)
        # t2 starts at step 2; t0 (span 4) is free but has the wrong
        # layout, so t2 founds a new slot.
        assert plan.assignment["t2"] != plan.assignment["t0"]
        assert plan.assignment["t2"] != plan.assignment["t1"]


class TestSlotCapacity:
    def test_slot_capacity_is_max_member(self):
        # A big temp reusing a small temp's slot grows the slot.
        g = Graph(GC200.n_tiles)
        g.add_variable("x", (10,))
        g.add_variable("small", (10,))
        g.add_variable("mid", (10,))
        g.add_variable("big", (500,))
        chain = [("x", "small"), ("small", "mid"), ("mid", "big")]
        for i, (src, dst) in enumerate(chain):
            cs = g.add_compute_set(f"s{i}")
            g.add_vertices(
                cs, "Copy", [0],
                inputs=[Edge(src, 10)],
                outputs=[Edge(dst, g.variables[dst].n_elements)],
            )
        plan = plan_memory(g)
        assert plan.assignment["big"] == plan.assignment["small"]
        slot = plan.slots[plan.assignment["big"]]
        assert slot.nbytes == 2000
        assert slot.n_elements == 500

    def test_per_tile_bytes_sum_matches_slot_capacities(self):
        plan = plan_memory(chain_graph(6))
        assert plan.per_tile_bytes.sum() == pytest.approx(
            plan.planned_variable_bytes
        )


class TestInvariants:
    @pytest.mark.parametrize(
        "module, in_features",
        [
            (
                lambda: nn.Sequential(
                    *[
                        m
                        for i in range(5)
                        for m in (nn.Linear(64, 64, seed=i), nn.ReLU())
                    ]
                ),
                64,
            ),
            (lambda: nn.ButterflyLinear(128, 128, seed=0), 128),
            (lambda: nn.FastfoodLinear(128, seed=0), 128),
            (lambda: nn.CirculantLinear(96, seed=0), 96),
        ],
    )
    def test_planned_never_exceeds_no_reuse(self, module, in_features):
        graph = IPUModule(module(), in_features, 16).graph
        plan = plan_memory(graph)
        assert np.all(
            plan.per_tile_bytes <= plan.no_reuse_per_tile_bytes + 1e-9
        )
        assert 0.0 <= plan.reuse_fraction < 1.0

    def test_shared_slots_hold_disjoint_intervals(self):
        graph = IPUModule(
            nn.Sequential(
                *[
                    m
                    for i in range(6)
                    for m in (nn.Linear(64, 64, seed=i), nn.ReLU())
                ]
            ),
            64,
            16,
        ).graph
        report = compute_liveness(graph)
        by_var = {iv.var: iv for iv in report.intervals}
        plan = plan_memory(graph, liveness=report)
        assert plan.n_shared_slots > 0
        for slot in plan.slots:
            if not slot.shared:
                continue
            spans = sorted(
                (by_var[m].start, by_var[m].end) for m in slot.members
            )
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end < start  # strictly disjoint live ranges

    def test_surviving_variables_include_outputs(self):
        g = chain_graph(4)
        plan = plan_memory(g)
        # The last temp is the slot's final occupant: its bytes survive.
        assert "t3" in plan.surviving_variables()

    def test_str_summarises(self):
        text = str(plan_memory(chain_graph(4)))
        assert text.startswith("MemoryPlan(")
        assert "reclaimed" in text
