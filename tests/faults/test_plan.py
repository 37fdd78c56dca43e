"""Tests for seeded fault plans: validation and replay determinism."""

import pytest

from repro.faults.plan import (
    EXCHANGE_CORRUPTION,
    FAULT_KINDS,
    HOST_STALL,
    PERMANENT_TILE,
    TRANSIENT_COMPUTE,
    FaultEvent,
    FaultPlan,
)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("cosmic_ray", step=0)
        with pytest.raises(ValueError, match="step"):
            FaultEvent(TRANSIENT_COMPUTE, step=-1)
        with pytest.raises(ValueError, match="severity"):
            FaultEvent(TRANSIENT_COMPUTE, step=0, severity=0)

    def test_key_identity(self):
        a = FaultEvent(TRANSIENT_COMPUTE, step=3, tile=7)
        b = FaultEvent(TRANSIENT_COMPUTE, step=3, tile=7, severity=2)
        assert a.key == b.key == (TRANSIENT_COMPUTE, 3, 7)


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan.none()
        assert plan.is_empty
        assert plan.faults_at(0, 8) == []

    def test_zero_rates_are_empty(self):
        assert FaultPlan.from_rates(0, transient_compute=0.0).is_empty

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rates=(("nope", 0.5),))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan.from_rates(0, host_stall=1.5)

    def test_scheduled_events_fire_at_their_step(self):
        event = FaultEvent(HOST_STALL, step=4)
        plan = FaultPlan(events=(event,))
        assert plan.faults_at(4, 8) == [event]
        assert plan.faults_at(3, 8) == []

    def test_drawn_faults_are_pure_functions_of_seed_and_step(self):
        plan = FaultPlan.from_rates(
            7, transient_compute=0.3, exchange_corruption=0.3
        )
        per_step = [plan.drawn_at(s, 64) for s in range(50)]
        # Replay in reverse order: identical results, so the injector's
        # query order cannot change what fires.
        replayed = [plan.drawn_at(s, 64) for s in reversed(range(50))]
        assert per_step == list(reversed(replayed))

    def test_rate_one_always_fires(self):
        plan = FaultPlan.from_rates(0, permanent_tile=1.0)
        for step in range(10):
            (event,) = plan.drawn_at(step, 16)
            assert event.kind == PERMANENT_TILE
            assert 0 <= event.tile < 16

    def test_different_seeds_differ(self):
        a = FaultPlan.from_rates(0, transient_compute=0.2)
        b = FaultPlan.from_rates(1, transient_compute=0.2)
        hits_a = [bool(a.drawn_at(s, 8)) for s in range(200)]
        hits_b = [bool(b.drawn_at(s, 8)) for s in range(200)]
        assert hits_a != hits_b

    def test_rate_roughly_respected(self):
        plan = FaultPlan.from_rates(3, exchange_corruption=0.25)
        hits = sum(bool(plan.drawn_at(s, 8)) for s in range(400))
        assert 60 <= hits <= 140  # ~100 expected

    def test_kind_order_is_canonical(self):
        assert FAULT_KINDS[0] == TRANSIENT_COMPUTE
        assert EXCHANGE_CORRUPTION in FAULT_KINDS
        assert len(set(FAULT_KINDS)) == len(FAULT_KINDS) == 5
