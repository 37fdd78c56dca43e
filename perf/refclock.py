"""The reference clock: the host's speed, measured next to every timed unit.

The benchmark's host is a shared VM whose speed swings by up to 2x in
regimes that last from seconds to minutes (README.md), so no statistic
over the wall times of one run is steady from run to run.  A fixed
reference kernel, timed between the units, runs at the speed of that
moment.  A unit's time over the nearest reference time is its cost in
host-independent terms, and :data:`REFERENCE_S` turns that ratio back
into seconds.

Only the standard library is imported at module level: ``bench.py`` reads
:data:`REFERENCE_S` without importing numpy.
"""

from __future__ import annotations

import heapq
import time

#: The reference kernel's time on the host of the committed ledger when it
#: runs fast (the minimum over a few hundred samples): a normalised time
#: is the time the unit would take on that host at that speed.
REFERENCE_S = 4.3e-3

#: A reference sample is taken after the first unit that ends at least this
#: long after the previous sample, so tiny units share their samples and
#: the clock costs a few percent of the run.
PERIOD_S = 0.1


class _Event:
    __slots__ = ("time_s", "index")

    def __init__(self, time_s: float, index: int) -> None:
        self.time_s = time_s
        self.index = index


class ReferenceClock:
    """Times a fixed kernel made of the work the workloads spend their time
    in: interpreted arithmetic, an event loop over small objects, a heap
    and a dict (the serving simulator's kind of work, which slows more
    than arithmetic when the host is contended), and small numpy and BLAS
    calls.

    The kernel keeps under a hundred new objects alive at once, far below
    the collector's young-generation threshold of 700, so it hardly moves
    the collections of the timed program.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._tanh = np.tanh
        self._weights = rng.standard_normal((256, 256)) / 16.0
        self._inputs = rng.standard_normal((50, 256))
        self._slots = [0] * 256
        self._table = {i: i * 0.5 for i in range(4096)}
        self._heap = [(i * 1e-3, i) for i in range(64)]

    def _kernel(self) -> float:
        slots = self._slots
        acc = 0
        for i in range(2500):
            acc = (acc * 31 + i) % 1_000_003
            slots[i & 255] = acc
        heap = list(self._heap)
        table = self._table
        total = 0.0
        for j in range(3000):
            time_s, index = heapq.heappop(heap)
            event = _Event(time_s, index)
            total += event.time_s + table[(event.index * 31) & 4095]
            heapq.heappush(heap, (time_s + (j % 7) * 3e-4, j))
        x = self._inputs
        for _ in range(6):
            x = self._tanh(x @ self._weights)
        return total

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start
