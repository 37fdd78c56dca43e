"""The fault injector: delivers planned faults and accounts their fate.

The executor (and the chaos harness, for multi-IPU link faults) asks the
injector which faults fire at each program step; the injector answers from
its :class:`~repro.faults.plan.FaultPlan` and records every observation in
a ledger keyed by the fault's identity, so re-executions after a
recompile (permanent tile failure) do not double-count.  The ledger rolls
up into a :class:`FaultReport` — injected vs recovered vs fatal per kind —
whose equality across two same-seed runs is the chaos suite's
replay-determinism check.

:data:`NULL_INJECTOR` is a plain ``FaultInjector()``: its plan is empty,
so ``active`` is ``False`` and the executor skips every fault hook (the
same fast path as ``Tracer.enabled``), and an un-injected run is
byte-identical to the pre-fault code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import (
    FAULT_KINDS,
    PERMANENT_TILE,
    FaultEvent,
    FaultPlan,
)
from repro.obs import get_logger, get_registry
from repro.utils import format_seconds

__all__ = [
    "FaultError",
    "PermanentTileFault",
    "UnrecoveredFaultError",
    "FaultReport",
    "FaultInjector",
    "NULL_INJECTOR",
]


class FaultError(RuntimeError):
    """Base class for unrecoverable injected faults."""


class PermanentTileFault(FaultError):
    """A tile died permanently; the graph must be recompiled without it."""

    def __init__(self, event: FaultEvent) -> None:
        super().__init__(
            f"tile {event.tile} failed permanently at program step "
            f"{event.step}; recompile with exclude_tiles to recover"
        )
        self.event = event
        self.tile = event.tile
        self.step = event.step


class UnrecoveredFaultError(FaultError):
    """A retryable fault exhausted the executor's retry budget."""

    def __init__(self, event: FaultEvent, max_retries: int) -> None:
        super().__init__(
            f"{event.kind} fault at step {event.step} (tile {event.tile}) "
            f"not recovered within {max_retries} retries"
        )
        self.event = event


#: Ledger outcomes.
RECOVERED = "recovered"
FATAL = "fatal"


@dataclass
class _LedgerEntry:
    event: FaultEvent
    outcome: str
    retries: int = 0
    retry_s: float = 0.0


@dataclass(frozen=True)
class FaultReport:
    """Summary of one chaos run: injected vs recovered vs fatal per kind.

    Built from the injector's deduplicated ledger; two runs of the same
    seeded plan produce *equal* reports (the replay-determinism check).
    """

    injected: tuple[tuple[str, int], ...]
    recovered: tuple[tuple[str, int], ...]
    fatal: tuple[tuple[str, int], ...]
    total_retries: int
    total_retry_s: float

    @property
    def n_injected(self) -> int:
        return sum(n for _, n in self.injected)

    @property
    def n_recovered(self) -> int:
        return sum(n for _, n in self.recovered)

    @property
    def n_fatal(self) -> int:
        return sum(n for _, n in self.fatal)

    @property
    def all_recovered(self) -> bool:
        """True iff every injected fault was recovered."""
        return self.n_fatal == 0 and self.n_recovered == self.n_injected

    def kinds_injected(self) -> list[str]:
        """Fault kinds that fired at least once, canonical order."""
        return [k for k, n in self.injected if n > 0]

    def render(self) -> str:
        lines = [
            "FaultReport: "
            f"{self.n_injected} injected, {self.n_recovered} recovered, "
            f"{self.n_fatal} fatal; {self.total_retries} retries costing "
            f"{format_seconds(self.total_retry_s)}"
        ]
        counts = {
            "injected": dict(self.injected),
            "recovered": dict(self.recovered),
            "fatal": dict(self.fatal),
        }
        for kind in FAULT_KINDS:
            i = counts["injected"].get(kind, 0)
            if not i:
                continue
            r = counts["recovered"].get(kind, 0)
            f = counts["fatal"].get(kind, 0)
            lines.append(
                f"  {kind:20s} injected={i} recovered={r} fatal={f}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class FaultInjector:
    """Stateful delivery of a :class:`FaultPlan` plus the outcome ledger."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan.none()
        #: Fast-path flag, mirroring ``Tracer.enabled``: when False the
        #: executor skips every fault hook.
        self.active: bool = not self.plan.is_empty
        #: Tiles already declared permanently dead (their faults do not
        #: re-fire after the recompile that excluded them).
        self.dead_tiles: set[int] = set()
        self._ledger: dict[tuple, _LedgerEntry] = {}

    # -- fault delivery -------------------------------------------------------

    def faults_at(self, step: int, n_tiles: int) -> list[FaultEvent]:
        """Faults firing at program step *step* on an *n_tiles* device.

        Permanent-tile faults whose tile is already dead (recovered via
        recompilation) are filtered out, so a re-execution survives the
        step that killed its predecessor.
        """
        events = self.plan.faults_at(step, n_tiles)
        return [
            e
            for e in events
            if not (e.kind == PERMANENT_TILE and e.tile in self.dead_tiles)
        ]

    # -- ledger ---------------------------------------------------------------

    def record_recovered(
        self, event: FaultEvent, retries: int = 0, retry_s: float = 0.0
    ) -> None:
        """Mark *event* recovered (idempotent per fault identity)."""
        first = event.key not in self._ledger
        self._ledger[event.key] = _LedgerEntry(
            event, RECOVERED, retries=retries, retry_s=retry_s
        )
        if event.kind == PERMANENT_TILE and event.tile is not None:
            self.dead_tiles.add(event.tile)
        registry = get_registry()
        if registry.enabled:
            # Metric counters mirror first-observation semantics (the
            # ledger stays authoritative for replay checks): a fault
            # seen fatal first and recovered after a recompile counts
            # once as injected, then once as recovered.
            if first:
                registry.counter(
                    "faults.injected", kind=event.kind
                ).inc()
            registry.counter("faults.recovered", kind=event.kind).inc()
            registry.counter("faults.retries", kind=event.kind).inc(
                retries
            )
            registry.counter("faults.retry_s", kind=event.kind).inc(
                retry_s
            )
        log = get_logger()
        if log.enabled:
            log.warning(
                "fault.recovered",
                kind=event.kind,
                step=event.step,
                tile=event.tile,
                retries=retries,
            )

    def record_fatal(self, event: FaultEvent) -> None:
        """Mark *event* fatal (unrecovered)."""
        first = event.key not in self._ledger
        self._ledger[event.key] = _LedgerEntry(event, FATAL)
        registry = get_registry()
        if registry.enabled:
            if first:
                registry.counter(
                    "faults.injected", kind=event.kind
                ).inc()
            registry.counter("faults.fatal", kind=event.kind).inc()
        log = get_logger()
        if log.enabled:
            log.error(
                "fault.fatal",
                kind=event.kind,
                step=event.step,
                tile=event.tile,
            )

    def report(self) -> FaultReport:
        """Roll the ledger up into a :class:`FaultReport`."""
        injected = {k: 0 for k in FAULT_KINDS}
        recovered = {k: 0 for k in FAULT_KINDS}
        fatal = {k: 0 for k in FAULT_KINDS}
        total_retries = 0
        total_retry_s = 0.0
        for key in sorted(
            self._ledger, key=lambda k: (k[1], FAULT_KINDS.index(k[0]))
        ):
            entry = self._ledger[key]
            kind = entry.event.kind
            injected[kind] += 1
            if entry.outcome == RECOVERED:
                recovered[kind] += 1
            else:
                fatal[kind] += 1
            total_retries += entry.retries
            total_retry_s += entry.retry_s
        def as_items(d: dict[str, int]) -> tuple[tuple[str, int], ...]:
            return tuple((k, d[k]) for k in FAULT_KINDS if d[k])

        return FaultReport(
            injected=as_items(injected),
            recovered=as_items(recovered),
            fatal=as_items(fatal),
            total_retries=total_retries,
            total_retry_s=total_retry_s,
        )


#: The module-level inactive injector (the executor default).
NULL_INJECTOR = FaultInjector()
