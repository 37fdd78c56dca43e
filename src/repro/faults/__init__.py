"""Fault injection, recovery and checkpointing (`repro.faults`).

The chaos-engineering layer of the reproduction: seeded
:class:`FaultPlan`\\ s describe what goes wrong (tile parity errors,
permanent tile death, exchange ECC failures, host stalls, IPU-Link
drops), the :class:`FaultInjector` delivers them to the executor and
ledgers each fault's fate, and :class:`CheckpointManager` provides the
atomic checkpoint/resume machinery that makes training survive the
fatal ones.

The chaos *harness* — which drives executors, recompiles around dead
tiles and runs kill/resume experiments — is an experiment, so it lives
in :mod:`repro.experiments.chaos`.  This package imports only
:mod:`repro.obs` and :mod:`repro.utils`, so ``repro.cache``,
``repro.nn`` and ``repro.ipu`` can depend on it.
"""

from repro.faults.checkpoint import (
    CheckpointError,
    CheckpointManager,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults.injector import (
    NULL_INJECTOR,
    FaultError,
    FaultInjector,
    FaultReport,
    PermanentTileFault,
    UnrecoveredFaultError,
)
from repro.faults.plan import (
    EXCHANGE_CORRUPTION,
    FAULT_KINDS,
    HOST_STALL,
    LINK_DROP,
    PERMANENT_TILE,
    TRANSIENT_COMPUTE,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "TRANSIENT_COMPUTE",
    "PERMANENT_TILE",
    "EXCHANGE_CORRUPTION",
    "HOST_STALL",
    "LINK_DROP",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultError",
    "PermanentTileFault",
    "UnrecoveredFaultError",
    "FaultReport",
    "FaultInjector",
    "NULL_INJECTOR",
    "CheckpointError",
    "CheckpointManager",
    "save_checkpoint",
    "load_checkpoint",
]
