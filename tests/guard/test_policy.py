"""Unit tests for GuardPolicy: classification, backoff, validation."""

import pytest

from repro.faults.injector import UnrecoveredFaultError
from repro.faults.plan import (
    FaultEvent,
    HOST_STALL,
    PERMANENT_TILE,
    TRANSIENT_COMPUTE,
)
from repro.guard import (
    PERMANENT,
    TRANSIENT,
    GuardPolicy,
    TransientError,
    classify_exception,
)


class _FlaggedError(RuntimeError):
    transient = True


def test_transient_error_is_transient():
    assert classify_exception(TransientError("x")) == TRANSIENT


def test_transient_attribute_is_honoured():
    assert classify_exception(_FlaggedError("x")) == TRANSIENT


def test_plain_exceptions_are_permanent():
    assert classify_exception(ValueError("x")) == PERMANENT
    assert classify_exception(RuntimeError("x")) == PERMANENT
    assert classify_exception(MemoryError()) == PERMANENT


def test_connection_failures_are_transient():
    assert classify_exception(ConnectionResetError()) == TRANSIENT
    assert classify_exception(EOFError()) == TRANSIENT
    assert classify_exception(InterruptedError()) == TRANSIENT


def test_unrecovered_fault_kind_splits_the_verdict():
    transient = UnrecoveredFaultError(
        FaultEvent(TRANSIENT_COMPUTE, step=0, tile=1), max_retries=2
    )
    stall = UnrecoveredFaultError(
        FaultEvent(HOST_STALL, step=0), max_retries=2
    )
    permanent = UnrecoveredFaultError(
        FaultEvent(PERMANENT_TILE, step=0, tile=1), max_retries=2
    )
    assert classify_exception(transient) == TRANSIENT
    assert classify_exception(stall) == TRANSIENT
    assert classify_exception(permanent) == PERMANENT


def test_backoff_is_deterministic_and_exponential():
    policy = GuardPolicy(
        retries=4, backoff_base_s=0.1, backoff_max_s=10.0, jitter=0.5, seed=3
    )
    schedule = [policy.backoff_s(2, attempt) for attempt in range(1, 5)]
    assert schedule == [policy.backoff_s(2, attempt) for attempt in range(1, 5)]
    # Exponential base under the jittered value: delay k in
    # [base*2^k, base*2^k * 1.5].
    for attempt, delay in enumerate(schedule, start=1):
        base = 0.1 * 2.0 ** (attempt - 1)
        assert base <= delay <= base * 1.5


def test_backoff_decorrelates_cells():
    policy = GuardPolicy(jitter=0.5, backoff_base_s=1.0)
    assert policy.backoff_s(0, 1) != policy.backoff_s(1, 1)


def test_backoff_respects_cap():
    policy = GuardPolicy(
        retries=8, backoff_base_s=1.0, backoff_max_s=2.0, jitter=0.0
    )
    assert policy.backoff_s(0, 8) == 2.0


def test_backoff_seed_changes_schedule():
    a = GuardPolicy(seed=0, jitter=1.0, backoff_base_s=1.0)
    b = GuardPolicy(seed=1, jitter=1.0, backoff_base_s=1.0)
    assert a.backoff_s(0, 1) != b.backoff_s(0, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cell_timeout_s": 0.0},
        {"cell_timeout_s": -1.0},
        {"cell_timeout_s": float("inf")},
        {"cell_timeout_s": float("nan")},
        {"retries": -1},
        {"backoff_base_s": -0.1},
        {"backoff_base_s": float("nan")},
        {"backoff_base_s": float("inf")},
        {"backoff_max_s": float("nan")},
        {"backoff_max_s": float("inf")},
        {"jitter": 1.5},
        {"jitter": -0.1},
        {"resume": True},  # resume without a journal_dir
    ],
)
def test_invalid_policy_rejected(kwargs):
    with pytest.raises(ValueError):
        GuardPolicy(**kwargs)


def test_backoff_attempt_must_be_positive():
    with pytest.raises(ValueError):
        GuardPolicy().backoff_s(0, 0)
