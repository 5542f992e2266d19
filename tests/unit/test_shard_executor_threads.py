"""Thread-safety of the shared ``ShardExecutor``.

One multiplexing worker process serves many coordinator connections from
one executor, so its warm-context LRU is hammered concurrently: builds,
runs, and evictions all race.  These tests drive that executor from many
threads with a context limit far below the working set and assert that
(a) nothing crashes or deadlocks, (b) every shard's tally is
byte-identical to a serial run of the same draws, and (c) eviction never
closes a runtime mid-shard.
"""

import threading

import pytest

from repro.campaign import Tally
from repro.distributed.worker import (
    ShardContext,
    ShardExecutor,
    UnknownContextError,
)


class _Runtime:
    """A deterministic stand-in runtime that detects use-after-close."""

    def __init__(self, payload):
        self.tag = payload["tag"]
        self.closed = False

    def tally(self, start, count):
        assert not self.closed, "executor ran a shard on an evicted runtime"
        return _expected(self.tag, start, count)

    def close(self):
        self.closed = True


@pytest.fixture
def fake_runtime(monkeypatch):
    monkeypatch.setattr(
        "repro.distributed.worker._build_runtime",
        lambda context: _Runtime(context.payload),
    )


def _expected(tag, start, count):
    """The tally a serial run of the stand-in runtime gives: draw *i*
    answers ``(tag, i)``."""
    return Tally(
        count, count, {(tag, index): 1 for index in range(start, start + count)}
    )


def _context(tag):
    return ShardContext.create("chain", {"tag": tag})


class TestShardExecutorThreads:
    def test_concurrent_campaigns_with_lru_churn(self, fake_runtime):
        executor = ShardExecutor(context_limit=2)
        contexts = [_context(f"campaign-{i}") for i in range(6)]
        errors = []
        results = {}

        def hammer(worker_id):
            try:
                out = []
                for step in range(40):
                    context = contexts[(worker_id + step) % len(contexts)]
                    # The worker-protocol loop: on an eviction race
                    # between ensure and run (UnknownContextError == the
                    # wire's need_context), re-ship and retry.
                    while True:
                        executor.ensure_context(context)
                        try:
                            outcomes = executor.run_shard(
                                context.context_id, start=step * 5, count=5
                            )
                            break
                        except UnknownContextError:
                            continue
                    assert outcomes == _expected(
                        context.payload["tag"], step * 5, 5
                    )
                    out.append(outcomes)
                results[worker_id] = out
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert not errors, errors
        assert len(results) == 8
        # LRU pressure really happened (6 contexts through 2 slots) ...
        assert executor.contexts_evicted > 0
        # ... and the resident set respects the limit once quiescent.
        assert len(executor._slots) <= executor.context_limit
        executor.close()

    def test_concurrent_builds_of_same_context_build_once(self, fake_runtime):
        executor = ShardExecutor(context_limit=4)
        context = _context("shared")
        barrier = threading.Barrier(6)
        errors = []

        def build():
            try:
                barrier.wait(timeout=10)
                executor.ensure_context(context)
                assert executor.run_shard(context.context_id, 0, 3) == _expected(
                    "shared", 0, 3
                )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert executor.contexts_built == 1
        executor.close()

    def test_failed_build_propagates_to_every_waiter(self, monkeypatch):
        calls = []

        def exploding_build(context):
            calls.append(1)
            raise RuntimeError("boom")

        monkeypatch.setattr(
            "repro.distributed.worker._build_runtime", exploding_build
        )
        executor = ShardExecutor()
        context = _context("doomed")
        errors = []

        def build():
            try:
                executor.ensure_context(context)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # Every thread saw the failure (each retries the build itself).
        assert len(errors) == 4
        assert not executor.has_context(context.context_id)
        executor.close()

    def test_busy_runtime_is_not_evicted(self, fake_runtime):
        executor = ShardExecutor(context_limit=1)
        slow_context = _context("slow")
        executor.ensure_context(slow_context)
        slot = executor._slots[slow_context.context_id]
        entered = threading.Event()
        release = threading.Event()
        original = slot.runtime.tally

        def slow_tally(start, count):
            entered.set()
            assert release.wait(timeout=30)
            return original(start, count)

        slot.runtime.tally = slow_tally
        result = {}

        def run_slow():
            result["outcomes"] = executor.run_shard(slow_context.context_id, 0, 2)

        thread = threading.Thread(target=run_slow)
        thread.start()
        assert entered.wait(timeout=10)
        # LRU pressure while the shard computes: the busy runtime must
        # survive (the cache overshoots instead).
        other = _context("other")
        executor.ensure_context(other)
        assert not slot.runtime.closed
        release.set()
        thread.join(timeout=30)
        assert result["outcomes"] == _expected("slow", 0, 2)
        # Once idle, the next operation trims the cache back to its limit.
        executor.run_shard(other.context_id, 0, 1)
        assert len(executor._slots) <= executor.context_limit
        executor.close()
