"""Coalesce concurrent lookups into one index pass.

Under concurrent load many clients ask similar (often identical) questions
in the same scheduling quantum.  :class:`RequestBatcher` sits between the
asyncio transport and the (synchronous) index: requests submitted while a
batch is open are queued, duplicates are answered by a single execution,
and the whole batch runs in one call into the serving core — one
cache-epoch check, one pass over the index per unique query, and no
interleaved mutations in the middle of a batch.

The batcher is transport-agnostic: it only needs a callable that maps a
list of unique request keys to a list of results.  That keeps it testable
without sockets, and reusable for any future transport (HTTP, unix domain
sockets, ...).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

Key = TypeVar("Key", bound=Hashable)


@dataclass(slots=True)
class BatcherStats:
    """Accounting for one :class:`RequestBatcher`."""

    requests: int = 0
    batches: int = 0
    unique_executed: int = 0

    @property
    def coalesced(self) -> int:
        """Requests answered without their own execution (duplicates)."""
        return self.requests - self.unique_executed

    def as_dict(self) -> dict[str, int]:
        return {"requests": self.requests, "batches": self.batches,
                "unique_executed": self.unique_executed,
                "coalesced": self.coalesced}


class RequestBatcher:
    """Group concurrent :meth:`submit` calls into batched executions.

    Parameters
    ----------
    execute:
        Synchronous callable mapping a list of **unique** keys to their
        results, in order.  It runs on the event-loop thread (the index is
        pure CPU work with no await points, exactly like the rest of the
        request handler).
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
        """Queue one request and await its result.

        Identical keys in the same batch share one execution.  A waiter
        gets its own shallow copy when the result is a plain list;
        results of any other shape are shared between duplicate waiters
        and must be treated as read-only.
        """
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
        unique: list[Key] = []
        positions: dict[Key, int] = {}
        for key, _ in batch:
            if key not in positions:
                positions[key] = len(unique)
                unique.append(key)
        try:
            results = self._execute(unique)
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            for _, future in batch:
                if not future.cancelled():
                    future.set_exception(error)
            return
        self.stats.unique_executed += len(unique)
        for key, future in batch:
            if future.cancelled():
                continue
            result = results[positions[key]]
            future.set_result(list(result) if isinstance(result, list) else result)
