"""Coalesce concurrent lookups into one index pass.

Under concurrent load many clients ask similar (often identical) questions
in the same scheduling quantum.  :class:`RequestBatcher` sits between the
asyncio transport and the (synchronous) index: requests submitted while a
batch is open are queued, and the whole batch runs in one call into the
serving core — one cache-epoch check, one pass over the index, and no
interleaved mutations in the middle of a batch.  The serving core's
``execute_queries`` answers (and counts) duplicate keys once.

The default window is 1 ms, the shortest sleep the event loop's timer
expresses.  What coalesces is everything submitted before the drain — the
keys of one ``search-batch`` line, and every connection whose request
line the loop read in the window.  Requests that arrive while a batch
executes wait in their socket buffers (the execute call runs on the loop
thread and never yields), and the loop reads them together into the next
drain, as in group commit.  A lone closed-loop client pays the whole
window.  Window ``0`` schedules the drain as a task on the next loop turn
instead: reads are then engine-bound, and so is their run-to-run spread,
which on a shared VM follows the host's CPU speed.

The batcher is transport-agnostic: it only needs a callable that maps a
list of request keys to a list of results.  That keeps it testable
without sockets, and reusable for any future transport (HTTP, unix domain
sockets, ...).  It records its own telemetry into a
:class:`~repro.obs.metrics.MetricsRegistry` (the serving core's, when the
TCP transport builds it): the ``batcher_requests`` and ``batcher_batches``
counters, the ``batch_size`` histogram (one observation per drain), the
``batcher_wait_seconds`` histogram (submit to drain start, per request)
and the ``batcher_pending`` gauge (queue depth at the last drain).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence, TypeVar

from ..obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

Key = TypeVar("Key")

#: ``batch_size`` bounds, in requests per drain.  A drain never exceeds
#: ``max_batch``; a configured ``max_batch`` above the last bound counts
#: in the +Inf bucket.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
#: ``batcher_wait_seconds`` bounds: the latency ladder with three steps
#: below its first 100 µs bound, where a zero-window wait (one loop turn)
#: lands.
BATCHER_WAIT_BUCKETS: tuple[float, ...] = (
    0.00001, 0.000025, 0.00005) + DEFAULT_LATENCY_BUCKETS


@dataclass(slots=True)
class BatcherStats:
    """Accounting for one :class:`RequestBatcher`."""

    requests: int = 0
    batches: int = 0


class RequestBatcher:
    """Group concurrent :meth:`submit` calls into batched executions.

    Parameters
    ----------
    execute:
        Synchronous callable mapping a list of keys (duplicates included)
        to their results, in order.  It runs on the event-loop thread (the
        index is pure CPU work with no await points, exactly like the rest
        of the request handler).
    max_batch:
        Batch size that triggers an immediate drain.
    window:
        Seconds a non-full batch waits for more requests before draining
        (default 1 ms).  ``0`` still coalesces: the drain is scheduled as
        a task, so every request submitted before the loop runs it joins
        the batch.
    metrics:
        Registry the batcher's telemetry is recorded into (a private one
        when omitted).  Its families are created here, so later drains
        only update them.

    Examples
    --------
    >>> import asyncio
    >>> batcher = RequestBatcher(lambda keys: [k.upper() for k in keys])
    >>> async def two():
    ...     return await asyncio.gather(batcher.submit("a"), batcher.submit("a"))
    >>> asyncio.run(two())
    ['A', 'A']
    >>> snapshot = batcher.metrics.snapshot()
    >>> snapshot["counters"]["batcher_batches"], snapshot["gauges"]["batcher_pending"]
    (1, 2)
    """

    def __init__(self, execute: Callable[[list[Key]], Sequence[object]], *,
                 max_batch: int = 64, window: float = 0.001,
                 metrics: MetricsRegistry | None = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch!r}")
        if not math.isfinite(window) or window < 0:
            # NaN or infinity would schedule a drain that never runs.
            raise ValueError(
                f"window must be non-negative and finite, got {window!r}")
        self._execute = execute
        self.max_batch = max_batch
        self.window = window
        self.stats = BatcherStats()
        self.metrics = MetricsRegistry() if metrics is None else metrics
        # Every family exists before the first drain: a drain then never
        # adds a key to the registry's dicts, which another thread may be
        # snapshotting.
        self.metrics.inc("batcher_requests", 0)
        self.metrics.inc("batcher_batches", 0)
        self.metrics.set_gauge("batcher_pending", 0)
        self._sizes = self.metrics.histogram("batch_size", BATCH_SIZE_BUCKETS)
        self._waits = self.metrics.histogram("batcher_wait_seconds",
                                             BATCHER_WAIT_BUCKETS)
        self._pending: list[tuple[Key, asyncio.Future, float]] = []
        self._drain_task: asyncio.Task | None = None

    async def submit(self, key: Key) -> object:
        """Queue one request and await its result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((key, future, perf_counter()))
        self.stats.requests += 1
        if len(self._pending) >= self.max_batch:
            if self._drain_task is not None:
                self._drain_task.cancel()
                self._drain_task = None
            self._drain()
        elif self._drain_task is None:
            self._drain_task = loop.create_task(self._drain_later())
        return await future

    async def _drain_later(self) -> None:
        try:
            if self.window:
                await asyncio.sleep(self.window)
        finally:
            self._drain_task = None
        self._drain()

    def _drain(self) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        started = perf_counter()
        size = len(batch)
        self.stats.batches += 1
        metrics = self.metrics
        metrics.inc("batcher_requests", size)
        metrics.inc("batcher_batches")
        metrics.set_gauge("batcher_pending", size)
        self._sizes.observe(size)
        observe_wait = self._waits.observe
        for _, _, submitted in batch:
            observe_wait(started - submitted)
        try:
            results = self._execute([key for key, _, _ in batch])
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            for _, future, _ in batch:
                if not future.cancelled():
                    future.set_exception(error)
            return
        for (_, future, _), result in zip(batch, results):
            if not future.cancelled():
                future.set_result(result)
