"""Dynamic micro-batching policy: pack queued requests into the compiled batch.

The IPU executes a *fixed* compiled batch shape, so batching trades
latency for occupancy: wait for more requests (better padding
efficiency) or flush now (better tail latency).  The policy is the
classic two-trigger rule — flush when the queue can fill the compiled
batch, or when the oldest queued request has waited ``max_delay_s``.
:meth:`repro.serve.server.Server.run` keeps the queue and applies the
rule inline.

Requests are packed whole (a request's rows never split across two
batches) in arrival order, and the remainder of the compiled batch is
padded with zero rows.  Padding costs cycles but leaves results alone
at batch 8, the batch size serving compiles: a padded batch returns
exactly the bytes each request would have gotten alone, for every layer
family this repo ships (``tests/ipu/test_batched_forward.py`` checks
this bit for bit at batch 8, and the ``batched_forward`` verify oracle
at the batches the fuzzer draws).  That is not true at every batch
size: at batches 3 and 5 some rows differ by rounding (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BatchPolicy"]

#: Flush reasons, in the order they are checked.
FLUSH_FULL = "full"
FLUSH_DELAY = "delay"


@dataclass(frozen=True)
class BatchPolicy:
    """The two-trigger micro-batching policy.

    ``max_batch_rows`` is the compiled batch size (the hard packing
    limit); ``max_delay_s`` bounds how long the oldest queued request
    may wait before a partial batch is flushed anyway.

    The *full* trigger fires when the queued rows reach the compiled
    batch: then the head batch cannot grow any further.  No request is
    larger than the batch, so with at most a batch of rows queued the
    whole queue is the head batch, maximal only when exactly full; with
    more, the next request overflows it.  Waiting on a maximal partial
    batch would buy nothing and cost delay.
    """

    max_batch_rows: int
    max_delay_s: float

    def __post_init__(self) -> None:
        if self.max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {self.max_batch_rows}"
            )
        if not 0 <= self.max_delay_s < math.inf:  # rejects NaN too
            raise ValueError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
