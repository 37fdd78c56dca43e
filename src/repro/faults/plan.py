"""Seeded fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is the declarative description of a chaos run: a set
of explicitly scheduled :class:`FaultEvent`\\ s (by program step, tile id
and severity) plus optional per-step probabilities for each fault kind.
All randomness flows from one seed through :class:`numpy.random.SeedSequence`
keyed by ``(seed, step, kind)``, so probabilistic faults are a *pure
function* of the plan — every chaos run replays exactly, regardless of the
order in which the executor queries the injector.

Fault kinds (modelled after the failure modes the IPU literature treats as
first-class — tile parity errors, exchange ECC, host preemption, IPU-Link
drops):

* ``transient_compute`` — a tile's superstep fails a parity check; the
  compute set is retried with backoff.
* ``permanent_tile`` — a tile dies for the rest of the run; the graph must
  be recompiled onto the surviving tile set.
* ``exchange_corruption`` — an exchange packet fails ECC; the superstep's
  exchange phase is re-run after a scrub.
* ``host_stall`` — a host I/O step is preempted and stalls.
* ``link_drop`` — a multi-IPU IPU-Link direction drops; collectives retry
  over the surviving direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TRANSIENT_COMPUTE",
    "PERMANENT_TILE",
    "EXCHANGE_CORRUPTION",
    "HOST_STALL",
    "LINK_DROP",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
]

TRANSIENT_COMPUTE = "transient_compute"
PERMANENT_TILE = "permanent_tile"
EXCHANGE_CORRUPTION = "exchange_corruption"
HOST_STALL = "host_stall"
LINK_DROP = "link_drop"

#: All fault kinds, in canonical order (the order used for seeded draws).
FAULT_KINDS = (
    TRANSIENT_COMPUTE,
    PERMANENT_TILE,
    EXCHANGE_CORRUPTION,
    HOST_STALL,
    LINK_DROP,
)

_KIND_INDEX = {kind: i for i, kind in enumerate(FAULT_KINDS)}


@dataclass(frozen=True)
class FaultEvent:
    """One fault occurrence: a kind pinned to a program step (and tile).

    ``severity`` scales the fault: for ``transient_compute`` it is the
    number of *failed* attempts before a retry succeeds; for
    ``host_stall`` it multiplies the stall duration; other kinds ignore
    it.
    """

    kind: str
    step: int
    tile: int | None = None
    severity: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.severity < 1:
            raise ValueError(f"severity must be >= 1, got {self.severity}")

    @property
    def key(self) -> tuple[str, int, int | None]:
        """Identity used to deduplicate re-observations of one fault."""
        return (self.kind, self.step, self.tile)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of faults for one execution.

    ``events`` fire unconditionally at their step; ``rates`` maps fault
    kinds to a per-program-step probability of one drawn fault.  Drawn
    faults depend only on ``(seed, step, kind)``, never on query order.
    """

    seed: int = 0
    events: tuple[FaultEvent, ...] = ()
    rates: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        rates = tuple((str(k), float(p)) for k, p in dict(self.rates).items())
        for kind, p in rates:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in rates")
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"rate for {kind!r} must be in [0, 1], got {p}"
                )
        object.__setattr__(self, "rates", rates)

    # -- constructors --------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: no scheduled events, no probabilistic faults."""
        return cls()

    @classmethod
    def from_rates(
        cls, seed: int, **rates: float
    ) -> "FaultPlan":
        """Purely probabilistic plan (kind=probability keyword arguments)."""
        return cls(seed=seed, rates=tuple(rates.items()))

    # -- queries -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.events and not any(p > 0 for _, p in self.rates)

    def scheduled_at(self, step: int) -> list[FaultEvent]:
        """Explicitly scheduled events firing at program step *step*."""
        return [e for e in self.events if e.step == step]

    def drawn_at(self, step: int, n_tiles: int) -> list[FaultEvent]:
        """Probabilistic events at *step*, deterministic in (seed, step).

        Each configured kind gets an independent substream keyed by
        ``(seed, step, kind)``; a hit draws the affected tile from the
        same substream.
        """
        drawn: list[FaultEvent] = []
        for kind, p in self.rates:
            if p <= 0.0:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    [int(self.seed), int(step), _KIND_INDEX[kind]]
                )
            )
            if rng.random() < p:
                tile = int(rng.integers(0, max(n_tiles, 1)))
                drawn.append(FaultEvent(kind=kind, step=step, tile=tile))
        return drawn

    def faults_at(self, step: int, n_tiles: int) -> list[FaultEvent]:
        """All events (scheduled then drawn) firing at *step*."""
        return self.scheduled_at(step) + self.drawn_at(step, n_tiles)
