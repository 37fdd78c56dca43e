"""Guard policy: retry bounds, deadlines, and failure classification.

A :class:`GuardPolicy` is the declarative half of the supervisor: how
long a cell may run, how many times a transient failure is retried, how
the backoff between attempts is derived, and whether the grid raises
(``strict``) or quarantines on unrecoverable cells.

**Determinism.**  Mirroring :class:`repro.faults.plan.FaultPlan`, every
backoff delay is a pure function of ``(seed, cell index, attempt)``
through :class:`numpy.random.SeedSequence` — never of wall-clock time or
scheduling order — so two supervised runs of the same grid wait the
same schedule and a replayed chaos run is exact.

**Classification.**  A worker failure is either *transient* (worth a
retry in another process: crashes, deadline kills,
:class:`TransientError`, connection drops, and
:class:`~repro.faults.injector.UnrecoveredFaultError` for the fault
kinds :mod:`repro.faults` itself models as transient) or *permanent*
(deterministic bugs and genuine OOM — retrying would fail identically,
so the cell is quarantined on first observation).  Classification runs
on the worker side of the process boundary, where the live exception
object is still available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.faults.injector import UnrecoveredFaultError
from repro.faults.plan import (
    EXCHANGE_CORRUPTION,
    HOST_STALL,
    TRANSIENT_COMPUTE,
)

__all__ = [
    "TRANSIENT",
    "PERMANENT",
    "TRANSIENT_FAULT_KINDS",
    "TransientError",
    "classify_exception",
    "GuardPolicy",
]

#: Classification verdicts.
TRANSIENT = "transient"
PERMANENT = "permanent"

#: The fault kinds ``repro.faults`` models as transient: a fresh attempt
#: on healthy hardware can succeed even after the device-level retry
#: budget was exhausted.  (``permanent_tile`` and ``link_drop`` demand
#: recompilation/topology recovery, not a blind re-run.)
TRANSIENT_FAULT_KINDS = frozenset(
    {TRANSIENT_COMPUTE, EXCHANGE_CORRUPTION, HOST_STALL}
)


class TransientError(RuntimeError):
    """A worker failure the raiser knows to be retryable.

    Workers (and the chaos harness) raise this — or any exception with a
    truthy ``transient`` attribute — to tell the supervisor a fresh
    attempt is worthwhile.
    """

    transient = True


def classify_exception(exc: BaseException) -> str:
    """:data:`TRANSIENT` or :data:`PERMANENT` for a worker exception.

    Anything not positively identified as transient is permanent:
    retrying a deterministic failure burns the retry budget and delays
    the quarantine verdict without changing it.
    """
    if getattr(exc, "transient", False):
        return TRANSIENT
    if isinstance(exc, UnrecoveredFaultError):
        kind = getattr(getattr(exc, "event", None), "kind", None)
        return TRANSIENT if kind in TRANSIENT_FAULT_KINDS else PERMANENT
    if isinstance(exc, (ConnectionError, EOFError, InterruptedError)):
        return TRANSIENT
    return PERMANENT


@dataclass(frozen=True)
class GuardPolicy:
    """Supervision bounds for one grid run.

    The default policy retries transient failures twice with a small
    seeded backoff, never times cells out (``cell_timeout_s=None``), and
    quarantines instead of raising.  ``strict=True`` preserves the
    historical contract: the grid is still driven to completion, then a
    :class:`~repro.bench.parallel.WorkerError` naming *every* failed
    cell is raised with the completed results attached.  ``run_grid``
    runs ``jobs > 1`` grids given no policy under
    ``GuardPolicy(retries=0, strict=True)``.
    """

    #: Wall-clock budget per attempt; ``None`` disables the watchdog.
    cell_timeout_s: float | None = None
    #: Transient-failure retries per cell (attempts = retries + 1).
    retries: int = 2
    #: Backoff before retry 1 (doubles per retry, capped at the max).
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: Fractional jitter: the seeded draw scales each delay into
    #: ``[delay, delay * (1 + jitter)]``.
    jitter: float = 0.25
    #: Seed for the jitter draws (pure function of (seed, index, attempt)).
    seed: int = 0
    #: Abnormal worker deaths (crashes + deadline kills) tolerated before
    #: the supervisor degrades to serial execution of the remaining cells.
    max_pool_rebuilds: int = 4
    #: Raise after the grid completes if any cell failed (legacy contract).
    strict: bool = False
    #: Journal directory; completed cells are recorded here when set.
    journal_dir: str | Path | None = field(default=None)
    #: Skip cells already present in the journal (requires journal_dir).
    resume: bool = False

    def __post_init__(self) -> None:
        # isfinite also rejects NaN, which slips past any "<= 0" test,
        # and inf, which multiprocessing's wait() cannot take as a timeout.
        if self.cell_timeout_s is not None and not (
            math.isfinite(self.cell_timeout_s) and self.cell_timeout_s > 0
        ):
            raise ValueError(
                "cell_timeout_s must be a positive finite number of "
                f"seconds, got {self.cell_timeout_s}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        for name in ("backoff_base_s", "backoff_max_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be a finite number >= 0, got {value}"
                )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        if self.resume and self.journal_dir is None:
            raise ValueError("resume=True requires a journal_dir")

    def backoff_s(self, index: int, attempt: int) -> float:
        """Delay before retry *attempt* (1-based) of cell *index*.

        Exponential in the attempt, jittered by a draw keyed on
        ``(seed, index, attempt)`` — deterministic for replays, but
        decorrelated across cells so a burst of same-step retries does
        not thunder back in lockstep.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_max_s, self.backoff_base_s * 2.0 ** (attempt - 1)
        )
        if base == 0.0 or self.jitter == 0.0:
            return base
        rng = np.random.default_rng(
            np.random.SeedSequence([int(self.seed), int(index), int(attempt)])
        )
        return base * (1.0 + self.jitter * float(rng.random()))

    def backoff_schedule(self, index: int) -> tuple[float, ...]:
        """The full retry-delay schedule for cell *index* (replay aid)."""
        return tuple(
            self.backoff_s(index, attempt)
            for attempt in range(1, self.retries + 1)
        )
