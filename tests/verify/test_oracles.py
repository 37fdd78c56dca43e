"""The oracles: they pass on the clean tree and catch planted bugs."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.verify import ORACLES, OracleFailure, check_case, generate_case
from repro.verify.gen import LayerSpec, RunConfig, Case
from repro.verify.hooks import PLANTS, plant
from repro.verify.oracles import (
    check_plan_sound,
    codelet_doubles,
    dense_twin,
    external_inputs,
)


def quiet_case(**overrides) -> Case:
    """A tiny hand-built case for targeted oracle tests."""
    defaults = dict(
        seed=0,
        index=0,
        batch=2,
        in_features=8,
        layers=(
            LayerSpec(kind="butterfly", out_features=8, seed=3),
            LayerSpec(kind="dense", out_features=4, seed=4),
        ),
        n_tiles=8,
        tile_memory_kib=624,
        reserved_tile_kib=16,
        run=RunConfig(),
    )
    defaults.update(overrides)
    return Case(**defaults)


class TestRegistry:
    def test_execution_order_and_names(self):
        assert list(ORACLES) == [
            "forward_dense",
            "backward_dense",
            "batched_forward",
            "metamorphic_linear",
            "metamorphic_probe",
            "optimizer_reference",
            "planned_unplanned",
            "cached_cold",
            "grid_manifest",
            "chaos_recovery",
        ]

    def test_every_oracle_has_description(self):
        for oracle in ORACLES.values():
            assert oracle.desc

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            check_case(quiet_case(), oracles=["nope"])

    def test_check_case_reports_applicable_oracles(self):
        ran = check_case(quiet_case(), oracles=["forward_dense"])
        assert ran == ["forward_dense"]


class TestDenseTwin:
    def test_twin_matches_structured_model(self):
        case = quiet_case()
        from repro.verify.gen import build_model

        model = build_model(case)
        twin = dense_twin(model)
        x = np.random.default_rng(0).standard_normal((3, 8))
        np.testing.assert_allclose(
            model(x).data, twin(x).data, atol=1e-8
        )

    def test_twin_is_all_linear(self):
        from repro.verify.gen import build_model

        twin = dense_twin(build_model(quiet_case()))
        kinds = {type(m) for m in twin.modules()} - {nn.Sequential}
        assert kinds <= {nn.Linear, nn.ReLU, nn.Tanh, nn.Sigmoid}


class TestPlantedBugs:
    def test_nesterov_plant_caught_by_optimizer_oracle(self):
        case = quiet_case()
        check_case(case, oracles=["optimizer_reference"])  # clean: passes
        with plant("nesterov"):
            with pytest.raises(OracleFailure) as exc_info:
                check_case(case, oracles=["optimizer_reference"])
        assert exc_info.value.oracle == "optimizer_reference"
        assert "nesterov" in exc_info.value.detail

    def test_butterfly_scale_plant_caught_by_forward_oracle(self):
        case = quiet_case()
        check_case(case, oracles=["forward_dense"])  # clean: passes
        with plant("butterfly-scale"):
            with pytest.raises(OracleFailure) as exc_info:
                check_case(case, oracles=["forward_dense"])
        assert exc_info.value.oracle == "forward_dense"

    def test_plants_deactivate_on_exit(self):
        case = quiet_case()
        for name in PLANTS:
            with plant(name):
                pass
            check_case(
                case, oracles=["forward_dense", "optimizer_reference"]
            )

    def test_unknown_plant_rejected(self):
        with pytest.raises(ValueError, match="unknown plant"):
            plant("nope")


class TestPlanSoundness:
    def _compiled(self, case):
        from repro.ipu.compiler import compile_graph
        from repro.ipu.poptorch import IPUModule
        from repro.verify.gen import build_model

        module = IPUModule(
            build_model(case), case.in_features, case.batch,
            spec=case.spec(),
        )
        return module.graph, compile_graph(
            module.graph, case.spec(), check_fit=False, plan_memory=True
        )

    def test_real_plan_validates(self):
        graph, compiled = self._compiled(quiet_case())
        check_plan_sound(graph, compiled.plan)

    def test_forged_overlap_rejected(self):
        graph, compiled = self._compiled(quiet_case())
        plan = compiled.plan
        # Merge two slots into one: their members' live intervals then
        # overlap, which the validator must reject.
        multi = [s for s in plan.slots if len(s.members) >= 1]
        if len(multi) < 2:
            pytest.skip("plan has no two occupied slots to merge")
        a, b = multi[0], multi[1]
        forged_members = (*a.members, *b.members)
        forged_slot = dataclasses.replace(
            a, members=forged_members, nbytes=max(a.nbytes, b.nbytes)
        )
        forged = dataclasses.replace(
            plan,
            slots=(
                forged_slot,
                *(s for s in plan.slots if s not in (a, b)),
            ),
        )
        with pytest.raises(OracleFailure):
            check_plan_sound(graph, forged)


class TestSharedMachinery:
    def test_codelet_doubles_restore_originals(self):
        from repro.ipu.vertices import CODELETS

        before = {name: CODELETS[name] for name in CODELETS}
        with codelet_doubles():
            assert CODELETS["ButterflyStage"].execute is not None
        assert {name: CODELETS[name] for name in CODELETS} == before

    def test_external_inputs_cover_unwritten_variables(self):
        from repro.ipu.poptorch import IPUModule
        from repro.verify.gen import build_model

        case = quiet_case()
        module = IPUModule(
            build_model(case), case.in_features, case.batch,
            spec=case.spec(),
        )
        inputs = external_inputs(module.graph, seed=0)
        a = external_inputs(module.graph, seed=0)
        b = external_inputs(module.graph, seed=1)
        for name, value in inputs.items():
            np.testing.assert_array_equal(value, a[name])
            assert value.shape == module.graph.variables[name].shape
        assert any(
            not np.array_equal(a[name], b[name]) for name in a
        )


class TestOraclesOnGeneratedCases:
    @pytest.mark.parametrize("index", range(8))
    def test_first_cases_green(self, index):
        case = generate_case(0, index)
        ran = check_case(case)
        assert "forward_dense" in ran

    def test_one_feature_butterfly_case_green(self):
        # Seed 2, case 68 draws ButterflyLinear(1, 1): a 0-level twiddle.
        case = generate_case(2, 68)
        assert case.layers[0].kind == "butterfly"
        ran = check_case(case)
        assert "forward_dense" in ran and "backward_dense" in ran
