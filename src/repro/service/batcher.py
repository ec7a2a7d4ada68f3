"""Coalesce concurrent lookups into one index pass.

Under concurrent load many clients ask similar (often identical) questions
in the same scheduling quantum.  :class:`RequestBatcher` sits between the
asyncio transport and the (synchronous) index: requests submitted while a
batch is open are queued, and the whole batch runs in one call into the
serving core — one cache-epoch check, one pass over the index, and no
interleaved mutations in the middle of a batch.  The serving core's
``execute_queries`` answers (and counts) duplicate keys once.

The batcher is transport-agnostic: it only needs a callable that maps a
list of request keys to a list of results.  That keeps it testable
without sockets, and reusable for any future transport (HTTP, unix domain
sockets, ...).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

Key = TypeVar("Key")


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
        Seconds a non-full batch waits for more requests before draining.
        ``0`` still coalesces: the drain is scheduled as a task, so every
        request submitted before the loop runs it joins the batch.

    Examples
    --------
    >>> import asyncio
    >>> batcher = RequestBatcher(lambda keys: [k.upper() for k in keys])
    >>> async def two():
    ...     return await asyncio.gather(batcher.submit("a"), batcher.submit("a"))
    >>> asyncio.run(two())
    ['A', 'A']
    """

    def __init__(self, execute: Callable[[list[Key]], Sequence[object]], *,
                 max_batch: int = 64, window: float = 0.002) -> None:
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
        self._pending: list[tuple[Key, asyncio.Future]] = []
        self._drain_task: asyncio.Task | None = None

    async def submit(self, key: Key) -> object:
        """Queue one request and await its result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((key, future))
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
        self.stats.batches += 1
        try:
            results = self._execute([key for key, _ in batch])
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            for _, future in batch:
                if not future.cancelled():
                    future.set_exception(error)
            return
        for (_, future), result in zip(batch, results):
            if not future.cancelled():
                future.set_result(result)
