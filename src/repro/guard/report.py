"""Per-cell grid reports and the ambient report collector.

A supervised grid returns its results *and* leaves behind a
:class:`GridReport`: one :class:`CellReport` per cell saying whether it
completed clean (``ok``), recovered after retries (``retried``), was
``quarantined`` after a permanent failure or an exhausted retry budget,
or ``timed_out`` against its deadline.  The report is what the manifest
``guard`` section, the chaos harness and the strict-mode exception are
built from: every retry, timeout, crash and quarantine in the run is
accounted for exactly once.

Because experiment drivers return row lists (not reports), the
supervisor publishes each report to an ambient collector — an
:class:`~repro.obs.context.Ambient` slot like the tracer's, installed
with :func:`reporting`::

    with guard.reporting() as reports:
        fig5.run(jobs=4, guard=policy)
    manifest = obs.build_manifest(
        "fig5", sections={"guard": guard_section(reports)}
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ContextManager

from repro.obs.context import Ambient

__all__ = [
    "STATUS_OK",
    "STATUS_RETRIED",
    "STATUS_QUARANTINED",
    "STATUS_TIMED_OUT",
    "CELL_STATUSES",
    "CellReport",
    "GridReport",
    "guard_section",
    "reporting",
    "record_report",
]

#: Final per-cell verdicts.
STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_QUARANTINED = "quarantined"
STATUS_TIMED_OUT = "timed_out"

CELL_STATUSES = (
    STATUS_OK,
    STATUS_RETRIED,
    STATUS_QUARANTINED,
    STATUS_TIMED_OUT,
)


@dataclass
class CellReport:
    """What happened to one grid cell under supervision.

    ``retries``/``timeouts``/``crashes`` count what the cell *survived
    or died of* across all attempts; ``status`` is the final verdict.
    A cell served from the journal is ``ok`` with ``from_journal=True``
    and zero attempts.
    """

    index: int
    config: str
    status: str = STATUS_OK
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    backoff_s: tuple[float, ...] = ()
    wall_s: float = 0.0
    error: str | None = None
    from_journal: bool = False
    # Observability recovered from the worker: spans/log events shipped
    # back over the pipe — including what a failing attempt flushed
    # before it died, so a quarantined cell is not a blind spot.
    n_spans: int = 0
    n_log_events: int = 0

    @property
    def ok(self) -> bool:
        """The cell produced a result (clean, retried, or journalled)."""
        return self.status in (STATUS_OK, STATUS_RETRIED)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "config": self.config,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "from_journal": self.from_journal,
            "error": self.error,
            "n_spans": self.n_spans,
            "n_log_events": self.n_log_events,
        }


@dataclass
class GridReport:
    """Roll-up of one supervised grid: every cell's fate plus pool events."""

    name: str
    cells: list[CellReport] = field(default_factory=list)
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    journal_hits: int = 0

    def count(self, status: str) -> int:
        return sum(1 for c in self.cells if c.status == status)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_ok(self) -> int:
        return self.count(STATUS_OK)

    @property
    def n_retried(self) -> int:
        return self.count(STATUS_RETRIED)

    @property
    def n_quarantined(self) -> int:
        return self.count(STATUS_QUARANTINED)

    @property
    def n_timed_out(self) -> int:
        return self.count(STATUS_TIMED_OUT)

    @property
    def total_retries(self) -> int:
        return sum(c.retries for c in self.cells)

    @property
    def total_timeouts(self) -> int:
        return sum(c.timeouts for c in self.cells)

    @property
    def total_crashes(self) -> int:
        return sum(c.crashes for c in self.cells)

    @property
    def ok(self) -> bool:
        """True iff every cell produced a result."""
        return all(c.ok for c in self.cells)

    def failed_cells(self) -> list[CellReport]:
        """Cells that produced no result, in index order."""
        return [c for c in self.cells if not c.ok]

    def render(self) -> str:
        lines = [
            f"GridReport[{self.name}]: {self.n_cells} cells — "
            f"{self.n_ok} ok, {self.n_retried} retried, "
            f"{self.n_quarantined} quarantined, "
            f"{self.n_timed_out} timed out; "
            f"{self.total_retries} retries, "
            f"{self.total_timeouts} deadline kills, "
            f"{self.total_crashes} crashes, "
            f"{self.pool_rebuilds} pool rebuilds, "
            f"{self.journal_hits} journal hits"
            + (" [serial fallback]" if self.serial_fallback else "")
        ]
        for cell in self.cells:
            if cell.status == STATUS_OK and not cell.retries:
                continue
            detail = f"  cell {cell.index} [{cell.config}]: {cell.status}"
            detail += (
                f" (attempts={cell.attempts}, retries={cell.retries},"
                f" timeouts={cell.timeouts}, crashes={cell.crashes}"
                + (", journal" if cell.from_journal else "")
                + ")"
            )
            if cell.error:
                first = cell.error.strip().splitlines()[-1]
                detail += f" — {first}"
            lines.append(detail)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def guard_section(reports: list[GridReport]) -> dict | None:
    """The ``guard`` section of a ``repro.run/1`` manifest.

    *reports* holds one :class:`GridReport` per supervised grid of the
    run; an empty list contributes no section (None).  Per-cell entries
    are included only for cells that did *not* complete clean on the
    first attempt, so a healthy run's section stays a handful of zeros.
    """
    if not reports:
        return None
    grids = []
    for report in reports:
        grids.append(
            {
                "name": report.name,
                "cells": int(report.n_cells),
                "ok": int(report.n_ok),
                "retried": int(report.n_retried),
                "quarantined": int(report.n_quarantined),
                "timed_out": int(report.n_timed_out),
                "retries": int(report.total_retries),
                "timeouts": int(report.total_timeouts),
                "crashes": int(report.total_crashes),
                "pool_rebuilds": int(report.pool_rebuilds),
                "serial_fallback": bool(report.serial_fallback),
                "journal_hits": int(report.journal_hits),
                "events": [
                    cell.as_dict()
                    for cell in report.cells
                    if cell.status != "ok" or cell.retries
                ],
            }
        )
    return {
        "grids": grids,
        "ok": all(r.ok for r in reports),
    }


# -- ambient collection --------------------------------------------------------

#: The active collector, or None (collection off — reports are dropped).
_REPORTS: Ambient[list[GridReport] | None] = Ambient(None)


def record_report(report: GridReport) -> None:
    """Publish *report* to the ambient collector, if one is active."""
    reports = _REPORTS.get()
    if reports is not None:
        reports.append(report)


def reporting() -> ContextManager[list[GridReport]]:
    """Collect every :class:`GridReport` published inside the block.

    Nestable: the inner collector shadows the outer one for its
    duration (reports land in exactly one collector).
    """
    return _REPORTS.use([])
