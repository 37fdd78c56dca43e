"""Dynamic micro-batching: pack queued requests into the compiled batch.

The IPU executes a *fixed* compiled batch shape, so the batcher's job is
to trade latency for occupancy: wait for more requests (better padding
efficiency) or flush now (better tail latency).  The policy is the
classic two-trigger rule — flush when the queue can fill the compiled
batch, or when the oldest queued request has waited ``max_delay_s``.

Requests are packed whole (a request's rows never split across two
batches) in arrival order, and the remainder of the compiled batch is
padded with zero rows.  Padding is semantically free: the numeric
forward is row-independent for every layer family this repo ships (the
``batched_forward`` verify oracle and
``tests/ipu/test_batched_forward.py`` pin this down bit-for-bit), so a
padded batch returns exactly the bytes each request would have gotten
alone.

The batcher is a pure data structure driven by the server's simulated
clock — it never reads wall time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.serve.workload import Request

__all__ = ["Batch", "BatchPolicy", "MicroBatcher"]

#: Flush reasons, in the order they are checked.
FLUSH_FULL = "full"
FLUSH_DELAY = "delay"
FLUSH_DRAIN = "drain"


@dataclass(frozen=True)
class BatchPolicy:
    """The two-trigger micro-batching policy.

    ``max_batch_rows`` is the compiled batch size (the hard packing
    limit); ``max_delay_s`` bounds how long the oldest queued request
    may wait before a partial batch is flushed anyway.
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


@dataclass(frozen=True)
class Batch:
    """One formed micro-batch, ready for a replica."""

    requests: tuple[Request, ...]
    rows: int
    pad_rows: int
    formed_s: float
    reason: str

    @property
    def occupancy(self) -> float:
        """Fraction of the compiled batch carrying real rows."""
        return self.rows / (self.rows + self.pad_rows)


@dataclass
class MicroBatcher:
    """FIFO request queue with the two-trigger flush rule."""

    policy: BatchPolicy

    def __post_init__(self) -> None:
        self._queue: list[tuple[Request, float]] = []
        self._rows = 0

    # -- queue state -----------------------------------------------------------

    @property
    def queued_requests(self) -> int:
        return len(self._queue)

    @property
    def queued_rows(self) -> int:
        return self._rows

    def next_delay_flush_s(self) -> float | None:
        """Absolute time at which the delay trigger fires, or ``None``."""
        if not self._queue:
            return None
        return self._queue[0][1] + self.policy.max_delay_s

    # -- enqueue / flush -------------------------------------------------------

    def offer(self, request: Request, now_s: float) -> None:
        """Append *request* to the queue (admission already decided)."""
        if request.rows > self.policy.max_batch_rows:
            raise ValueError(
                f"request {request.index} carries {request.rows} rows; "
                f"the compiled batch holds {self.policy.max_batch_rows}"
            )
        self._queue.append((request, now_s))
        self._rows += request.rows

    def flush_reason(self, now_s: float) -> str | None:
        """Which trigger (if any) says a batch should be formed now.

        The *full* trigger fires when the queued rows reach the compiled
        batch: then the head batch cannot grow any further.  No request
        is larger than the batch, so with at most a batch of rows queued
        the whole queue is the head batch, maximal only when exactly
        full; with more, the next request overflows it.  Waiting on a
        maximal partial batch would buy nothing and cost delay.
        """
        if not self._queue:
            return None
        if self._rows >= self.policy.max_batch_rows:
            return FLUSH_FULL
        if now_s >= self._queue[0][1] + self.policy.max_delay_s:
            return FLUSH_DELAY
        return None

    def flush(self, now_s: float, reason: str) -> Batch:
        """Form a batch from the head of the queue.

        Takes whole requests in FIFO order while they fit the compiled
        batch; the remainder stays queued for the next flush.
        """
        if not self._queue:
            raise ValueError("flush on an empty queue")
        taken: list[Request] = []
        rows = 0
        for request, _ in self._queue:
            if rows + request.rows > self.policy.max_batch_rows:
                break
            taken.append(request)
            rows += request.rows
        del self._queue[: len(taken)]
        self._rows -= rows
        return Batch(
            requests=tuple(taken),
            rows=rows,
            pad_rows=self.policy.max_batch_rows - rows,
            formed_s=now_s,
            reason=reason,
        )
