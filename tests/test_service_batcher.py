"""Tests for the request batcher (coalescing concurrent lookups)."""

import asyncio

import pytest

from repro.obs import MetricsRegistry
from repro.service import RequestBatcher


class Recorder:
    """An execute hook that records every batch it is handed."""

    def __init__(self, fail=False):
        self.batches = []
        self.fail = fail

    def __call__(self, keys):
        self.batches.append(list(keys))
        if self.fail:
            raise RuntimeError("index exploded")
        return [f"result:{key}" for key in keys]


def gather(batcher, keys):
    async def run():
        return await asyncio.gather(
            *(batcher.submit(key) for key in keys), return_exceptions=True)
    return asyncio.run(run())


class TestCoalescing:
    def test_concurrent_submits_share_one_batch(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=64, window=0.005)
        results = gather(batcher, ["a", "b", "a", "a", "b"])
        assert results == ["result:a", "result:b", "result:a", "result:a",
                           "result:b"]
        # One execution gets every key: deduplication is the execute
        # hook's job (the serving core's execute_queries), not the batcher's.
        assert recorder.batches == [["a", "b", "a", "a", "b"]]
        assert batcher.stats.requests == 5
        assert batcher.stats.batches == 1

    def test_zero_window_still_coalesces_same_tick_submits(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=64, window=0)
        results = gather(batcher, ["x", "x", "y"])
        assert results == ["result:x", "result:x", "result:y"]
        assert len(recorder.batches) == 1

    def test_max_batch_drains_immediately(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=2, window=10.0)

        async def run():
            # window is 10s: only the max_batch trigger can drain in time.
            return await asyncio.wait_for(
                asyncio.gather(batcher.submit("a"), batcher.submit("b")),
                timeout=5.0)

        assert asyncio.run(run()) == ["result:a", "result:b"]
        assert recorder.batches == [["a", "b"]]

    def test_sequential_submits_run_in_separate_batches(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, window=0)

        async def run():
            first = await batcher.submit("a")
            second = await batcher.submit("b")
            return [first, second]

        assert asyncio.run(run()) == ["result:a", "result:b"]
        assert recorder.batches == [["a"], ["b"]]
        assert batcher.stats.batches == 2

    def test_list_results_are_copied_per_waiter(self):
        batcher = RequestBatcher(lambda keys: [[1, 2] for _ in keys],
                                 window=0.005)
        first, second = gather(batcher, ["k", "k"])
        first.append(3)
        assert second == [1, 2]


class TestTelemetry:
    def test_families_exist_before_the_first_drain(self):
        registry = MetricsRegistry()
        RequestBatcher(Recorder(), metrics=registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"batcher_requests": 0,
                                        "batcher_batches": 0}
        assert snapshot["gauges"] == {"batcher_pending": 0}
        for name in ("batch_size", "batcher_wait_seconds"):
            assert snapshot["histograms"][name]["count"] == 0

    def test_drains_are_recorded_into_the_given_registry(self):
        registry = MetricsRegistry()
        batcher = RequestBatcher(Recorder(), max_batch=3, window=0,
                                 metrics=registry)
        gather(batcher, ["a", "b", "c", "d", "e"])
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        sizes = snapshot["histograms"]["batch_size"]
        waits = snapshot["histograms"]["batcher_wait_seconds"]
        # max_batch=3 drains the first three at once, the zero-window task
        # the last two: two drains, one size observation each.
        assert (counters["batcher_requests"], counters["batcher_batches"]) \
            == (5, 2) == (batcher.stats.requests, batcher.stats.batches)
        assert (sizes["count"], sizes["sum"]) == (2, 5)
        assert waits["count"] == 5 and waits["sum"] >= 0
        assert snapshot["gauges"]["batcher_pending"] == 2  # the last drain

    def test_default_window_is_one_millisecond(self):
        assert RequestBatcher(Recorder()).window == 0.001


class TestFailure:
    def test_execute_error_reaches_every_waiter(self):
        recorder = Recorder(fail=True)
        batcher = RequestBatcher(recorder, window=0.005)
        results = gather(batcher, ["a", "b"])
        assert all(isinstance(result, RuntimeError) for result in results)
        assert recorder.batches == [["a", "b"]]
        assert batcher.stats.batches == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RequestBatcher(lambda keys: [], max_batch=0)
        for window in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RequestBatcher(lambda keys: [], window=window)
