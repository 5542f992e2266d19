"""Distributed campaigns end to end (local pool + in-thread sockets).

The load-bearing property throughout: a seeded distributed campaign —
any worker count, any transport, including induced worker deaths —
produces **byte-identical** estimates to the single-process campaign,
because every draw is a pure function of ``(campaign seed, group key,
draw index)`` and the coordinator re-assembles outcomes in draw-index
order.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro import UniformGenerator
from repro.constraints import ConstraintSet, parse_constraints
from repro.core.errors import FailingSequenceError
from repro.core.sampling import approximate_cp, approximate_oca
from repro.db.facts import Database, Fact
from repro.diagnostics import (
    cache_report,
    record_worker_cache_stats,
    reset_worker_cache_stats,
)
from repro.distributed import (
    Coordinator,
    InlineTransport,
    LocalPoolTransport,
    ShardExecutor,
    WorkerServer,
)
from repro.distributed.coordinator import _map_worker_error
from repro.distributed.protocol import WorkerError
from repro.distributed.worker import ShardContext
from repro.queries import parse_cq
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLiteBackend,
)
from repro.workloads import key_conflict_workload, preference_workload

WORKLOAD = key_conflict_workload(
    clean_rows=10, conflict_groups=5, group_size=3, seed=9
)
QUERY = parse_cq("Q(x) :- R(x, y, z)")


def _sampler(policy=SamplerPolicy.OPERATIONAL_UNIFORM, **kwargs):
    backend = SQLiteBackend()
    WORKLOAD.load_into(backend)
    sampler = KeyRepairSampler(
        backend,
        WORKLOAD.schema,
        [WORKLOAD.key_spec],
        policy=policy,
        rng=random.Random(7),
        **kwargs,
    )
    return backend, sampler


@pytest.fixture(scope="module")
def serial_report():
    backend, sampler = _sampler()
    report = sampler.run(QUERY, runs=90)
    backend.close()
    return report


class TestLocalPoolByteIdentity:
    def test_two_worker_pool_matches_serial(self, serial_report):
        backend, sampler = _sampler(workers=2)
        try:
            report = sampler.run(QUERY, runs=90)
        finally:
            sampler.close_coordinator()
            backend.close()
        assert report.frequencies == serial_report.frequencies
        assert report.runs == serial_report.runs

    def test_worker_count_does_not_change_estimates(self, serial_report):
        for workers in (1, 3):
            backend, sampler = _sampler(workers=workers)
            try:
                report = sampler.run(QUERY, runs=90)
            finally:
                sampler.close_coordinator()
                backend.close()
            assert report.frequencies == serial_report.frequencies

    def test_keep_one_policy_matches_serial(self):
        backend, sampler = _sampler(policy=SamplerPolicy.KEEP_ONE_UNIFORM)
        serial = sampler.run(QUERY, runs=70)
        backend.close()
        backend, sampler = _sampler(
            policy=SamplerPolicy.KEEP_ONE_UNIFORM, workers=2
        )
        try:
            distributed = sampler.run(QUERY, runs=70)
        finally:
            sampler.close_coordinator()
            backend.close()
        assert distributed.frequencies == serial.frequencies

    def test_generic_sampler_distributed_matches_serial(self):
        db, sigma = preference_workload(products=12, edges=30, conflicts=5, seed=3)
        from repro.db.schema import Schema

        schema = Schema.of(Pref=2)
        reports = {}
        for label, kwargs in (("serial", {}), ("pool", {"workers": 2})):
            backend = SQLiteBackend()
            backend.load(db, schema)
            sampler = ConstraintRepairSampler(
                backend, schema, sigma, rng=random.Random(11), **kwargs
            )
            try:
                reports[label] = sampler.run(
                    parse_cq("Q(x) :- Pref(x, y)"), runs=60
                )
            finally:
                sampler.close_coordinator()
                backend.close()
        assert reports["pool"].frequencies == reports["serial"].frequencies


class TestSocketWorkers:
    def test_in_thread_socket_workers_match_serial(self, serial_report):
        servers = [WorkerServer() for _ in range(2)]
        for server in servers:
            server.start()
        coordinator = Coordinator.connect(
            [f"127.0.0.1:{server.port}" for server in servers], shard_size=10
        )
        backend, sampler = _sampler(coordinator=coordinator)
        try:
            report = sampler.run(QUERY, runs=90)
        finally:
            coordinator.close()
            for server in servers:
                server.shutdown()
            backend.close()
        assert report.frequencies == serial_report.frequencies

    def test_mixed_socket_and_pool_fleet(self, serial_report):
        server = WorkerServer()
        server.start()
        from repro.distributed import SocketTransport

        transports = [SocketTransport("127.0.0.1", server.port)]
        transports.extend(LocalPoolTransport.spawn(1))
        coordinator = Coordinator(transports, shard_size=8)
        backend, sampler = _sampler(coordinator=coordinator)
        try:
            report = sampler.run(QUERY, runs=90)
        finally:
            coordinator.close()
            server.shutdown()
            backend.close()
        assert report.frequencies == serial_report.frequencies


class TestWorkerDeath:
    def test_dead_worker_shards_are_re_leased(self, serial_report):
        """A worker killed before its shard completes: the lease is
        released, another worker recomputes the range, and the merged
        estimate equals the uninterrupted seeded run exactly."""
        pool = LocalPoolTransport.spawn(2)
        coordinator = Coordinator(pool, shard_size=5, lease_timeout=30)
        backend, sampler = _sampler(coordinator=coordinator)
        os.kill(pool[0].pid, signal.SIGKILL)
        time.sleep(0.1)
        try:
            report = sampler.run(QUERY, runs=90)
            survivors = coordinator.live_workers
        finally:
            coordinator.close()
            backend.close()
        assert report.frequencies == serial_report.frequencies
        assert coordinator.releases >= 1
        assert survivors == 1

    def test_kill_mid_run_still_byte_identical(self, serial_report):
        """Kill a worker while the campaign is in flight; whichever
        shards it held are recomputed elsewhere with identical draws."""
        pool = LocalPoolTransport.spawn(2)
        coordinator = Coordinator(pool, shard_size=3, lease_timeout=30)
        backend, sampler = _sampler(coordinator=coordinator)
        victim = pool[0].pid

        def kill_soon():
            time.sleep(0.05)
            try:
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the run may already have finished

        killer = threading.Thread(target=kill_soon)
        killer.start()
        try:
            report = sampler.run(QUERY, runs=90)
        finally:
            killer.join()
            coordinator.close()
            backend.close()
        assert report.frequencies == serial_report.frequencies

    def test_all_workers_dead_falls_back_inline(self, serial_report):
        pool = LocalPoolTransport.spawn(2)
        coordinator = Coordinator(pool, shard_size=10, lease_timeout=10)
        backend, sampler = _sampler(coordinator=coordinator)
        for transport in pool:
            os.kill(transport.pid, signal.SIGKILL)
        time.sleep(0.1)
        try:
            report = sampler.run(QUERY, runs=90)
            survivors = coordinator.live_workers
        finally:
            coordinator.close()
            backend.close()
        assert report.frequencies == serial_report.frequencies
        assert survivors == 0


class _SlowInline(InlineTransport):
    """An induced straggler: correct results, configurable per-shard lag."""

    def __init__(self, delay: float, name: str = "slow") -> None:
        super().__init__(name)
        self.delay = delay

    def run_shard(
        self, context, shard_id, start, count, timeout=None, deadline=None
    ):
        result = super().run_shard(
            context, shard_id, start, count, timeout, deadline=deadline
        )
        time.sleep(self.delay)
        return result


def _chain_context(seed=77):
    workload = key_conflict_workload(
        clean_rows=2, conflict_groups=2, group_size=2, arity=2, seed=4
    )
    return ShardContext.create(
        "chain",
        {
            "facts": tuple(workload.database),
            "generator": UniformGenerator(workload.constraints),
            "query": parse_cq("Q(x) :- R(x, y)"),
            "candidate": None,
            "allow_failing": False,
            "seed": seed,
            "stream_key": "root",
        },
    )


class TestSpeculativeReLease:
    def test_straggler_is_speculated_and_results_identical(self):
        context = _chain_context()
        serial = Coordinator([InlineTransport()], speculate=False)
        baseline = serial.run_range(context, 0, 40)
        serial.close()

        # Both workers have latency so both genuinely hold leases; the
        # straggler is 20x slower.
        fleet = [_SlowInline(0.04, name="fast"), _SlowInline(0.8, name="slow")]
        coordinator = Coordinator(fleet, shard_size=5, speculate=True)
        start = time.perf_counter()
        try:
            outcomes = coordinator.run_range(context, 0, 40)
            elapsed = time.perf_counter() - start
            assert outcomes == baseline
            # The fast worker stole the straggler's shard once the queue
            # drained; run_range returned without waiting out the lag.
            assert coordinator.speculations >= 1
            assert coordinator.speculation_wins >= 1
            assert elapsed < 0.7  # the non-speculative floor is >= 0.8s
        finally:
            coordinator.close()

    def test_busy_straggler_rejoins_on_a_later_range(self):
        context = _chain_context()
        fleet = [InlineTransport(name="fast"), _SlowInline(0.4, name="slow")]
        coordinator = Coordinator(fleet, shard_size=5, speculate=True)
        try:
            first = coordinator.run_range(context, 0, 20)
            # Immediately dispatch again: the straggler may still be
            # winding down its duplicate — the range must still complete
            # correctly (and byte-identically) without it.
            second = coordinator.run_range(context, 20, 20)
            serial = Coordinator([InlineTransport()], speculate=False)
            assert first + second == serial.run_range(context, 0, 40)
            serial.close()
            # Once quiescent, the straggler is available again.
            time.sleep(0.9)
            assert not any(
                thread.is_alive() for thread in coordinator._lagging.values()
            )
        finally:
            coordinator.close()

    def test_speculation_off_still_completes(self):
        context = _chain_context()
        fleet = [InlineTransport(name="fast"), _SlowInline(0.1, name="slow")]
        coordinator = Coordinator(fleet, shard_size=5, speculate=False)
        try:
            outcomes = coordinator.run_range(context, 0, 20)
            assert len(outcomes) == 20
            assert coordinator.speculations == 0
        finally:
            coordinator.close()


class TestCheckpointResume:
    def test_partially_distributed_campaign_resumes(self, tmp_path, serial_report):
        """A distributed campaign interrupted mid-run checkpoint-resumes
        (even serially) to exactly the uninterrupted estimates."""
        path = str(tmp_path / "campaign.ckpt")
        backend, sampler = _sampler(workers=2, checkpoint_path=path)
        try:
            partial = sampler.run(QUERY, runs=90, max_draws=40)
        finally:
            sampler.close_coordinator()
            backend.close()
        assert partial.runs == 40
        # Resume in a fresh "process": serial this time — the substreams
        # make the continuation independent of the execution mode.
        backend, sampler = _sampler(checkpoint_path=path)
        resumed = sampler.run(QUERY, runs=90)
        backend.close()
        assert resumed.runs == 90
        assert resumed.frequencies == serial_report.frequencies

    def test_serial_interrupt_resumes_distributed(self, tmp_path, serial_report):
        path = str(tmp_path / "campaign.ckpt")
        backend, sampler = _sampler(checkpoint_path=path)
        sampler.run(QUERY, runs=90, max_draws=33)
        backend.close()
        backend, sampler = _sampler(workers=2, checkpoint_path=path)
        try:
            resumed = sampler.run(QUERY, runs=90)
        finally:
            sampler.close_coordinator()
            backend.close()
        assert resumed.frequencies == serial_report.frequencies


class TestCoreEstimatorsDistributed:
    def test_approximate_cp_pool_matches_serial(self):
        workload = key_conflict_workload(
            clean_rows=4, conflict_groups=3, group_size=2, arity=2, seed=5
        )
        generator = UniformGenerator(workload.constraints)
        query = parse_cq("Q(x) :- R(x, y)")
        candidate = (sorted(f.values[0] for f in workload.database)[0],)
        serial = approximate_cp(
            workload.database, generator, query, candidate, rng=random.Random(2)
        )
        pooled = approximate_cp(
            workload.database,
            generator,
            query,
            candidate,
            rng=random.Random(2),
            workers=2,
        )
        assert pooled.estimate == serial.estimate
        assert pooled.samples == serial.samples

    def test_approximate_oca_pool_matches_serial(self):
        workload = key_conflict_workload(
            clean_rows=3, conflict_groups=2, group_size=2, arity=2, seed=6
        )
        generator = UniformGenerator(workload.constraints)
        query = parse_cq("Q(x) :- R(x, y)")
        serial = approximate_oca(
            workload.database, generator, query, rng=random.Random(4)
        )
        pooled = approximate_oca(
            workload.database, generator, query, rng=random.Random(4), workers=2
        )
        assert pooled == serial

    def test_failing_walks_through_a_pool_match_serial(self):
        """Pool workers and the serial path run one chain range
        function: failing walks are discarded identically, or raise."""
        constraints = ConstraintSet(
            parse_constraints("R(x) -> T(x)\nT(x) -> false")
        )
        database = Database.of(Fact("R", ("a",)), Fact("R", ("b",)))
        generator = UniformGenerator(constraints)
        query = parse_cq("Q(x) :- R(x)")

        def estimate(**kwargs):
            return approximate_cp(
                database, generator, query, ("a",), rng=random.Random(3),
                **kwargs,
            )

        serial = estimate(allow_failing=True)
        assert serial.samples == 150 and serial.failing_walks == 121
        assert estimate(allow_failing=True, workers=2) == serial
        with pytest.raises(FailingSequenceError):
            estimate()
        with pytest.raises(FailingSequenceError):
            estimate(workers=2)

    def test_fatal_worker_errors_keep_their_type(self):
        error = WorkerError(
            "walk failed", exception_type="FailingSequenceError", fatal=True
        )
        assert isinstance(_map_worker_error(error), FailingSequenceError)


class TestWorkerCacheAggregation:
    def test_cache_report_includes_worker_counters(self):
        reset_worker_cache_stats()
        backend, sampler = _sampler(workers=2)
        try:
            sampler.run(QUERY, runs=60)
        finally:
            sampler.close_coordinator()
            backend.close()
        report = cache_report()
        assert report.worker_count >= 1
        assert report.workers, "no worker counters aggregated"
        total_lookups = sum(
            counters.get("hits", 0) + counters.get("misses", 0)
            for counters in report.workers.values()
        )
        assert total_lookups > 0
        assert "workers x" in report.format()
        reset_worker_cache_stats()

    def test_aggregation_sums_across_workers(self):
        reset_worker_cache_stats()
        record_worker_cache_stats("w1", {"memo": {"hits": 3, "misses": 1}})
        record_worker_cache_stats("w2", {"memo": {"hits": 4, "misses": 2}})
        # Re-reporting the same worker replaces (snapshots are cumulative).
        record_worker_cache_stats("w2", {"memo": {"hits": 5, "misses": 2}})
        report = cache_report()
        assert report.workers["memo"] == {"hits": 8, "misses": 3}
        assert report.worker_count == 2
        reset_worker_cache_stats()


class TestTargetedAdaptiveStopping:
    def test_targeted_cp_stops_before_max_over_tuples(self):
        """A zero-variance target resolves early even while other answer
        streams stay high-variance (per-tuple early termination)."""
        workload = key_conflict_workload(
            clean_rows=6, conflict_groups=4, group_size=2, arity=3, seed=14
        )
        clean_key = sorted(
            f.values[0]
            for f in workload.database
            if sum(
                1 for g in workload.database if g.values[0] == f.values[0]
            )
            == 1
        )[0]
        reports = {}
        for label, target in (("max_over", None), ("targeted", (clean_key,))):
            backend, sampler = _sampler()
            backend.close()
            backend = SQLiteBackend()
            workload.load_into(backend)
            sampler = KeyRepairSampler(
                backend,
                workload.schema,
                [workload.key_spec],
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(8),
                adaptive=True,
            )
            reports[label] = sampler.run(
                QUERY, epsilon=0.05, delta=0.1, target=target
            )
            backend.close()
        assert reports["targeted"].cp((clean_key,)) == 1.0
        assert reports["targeted"].runs < reports["max_over"].runs
        assert reports["targeted"].stopped_early

    def test_targeted_stop_agrees_with_untargeted_single_stream(self):
        """With a single-answer query the two modes coincide."""
        workload = key_conflict_workload(
            clean_rows=1, conflict_groups=0, group_size=2, arity=3, seed=2
        )
        backend = SQLiteBackend()
        workload.load_into(backend)
        sampler = KeyRepairSampler(
            backend,
            workload.schema,
            [workload.key_spec],
            rng=random.Random(1),
            adaptive=True,
        )
        only_key = next(iter(workload.database)).values[0]
        report = sampler.run(
            QUERY, epsilon=0.05, delta=0.1, target=(only_key,)
        )
        backend.close()
        assert report.cp((only_key,)) == 1.0
        assert report.stopped_early


class TestReviewRegressions:
    def test_apply_update_invalidates_shard_contexts(self):
        """After a base-table delta, workers must sample the *new*
        instance — the cached context snapshot is dropped."""
        workload = key_conflict_workload(
            clean_rows=4, conflict_groups=2, group_size=2, arity=3, seed=31
        )

        def build(workers=None):
            backend = SQLiteBackend()
            workload.load_into(backend)
            return backend, KeyRepairSampler(
                backend,
                workload.schema,
                [workload.key_spec],
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(7),
                workers=workers,
            )

        from repro.db.facts import Fact

        added = [
            Fact("R", ("brandnew", "v1", "w1")),
            Fact("R", ("brandnew", "v2", "w2")),
        ]
        backend, serial = build()
        serial.run(QUERY, runs=10)  # advance cursor pre-update, like below
        serial.apply_update(added=added)
        expected = serial.run(QUERY, runs=40)
        backend.close()

        backend, distributed = build(workers=2)
        try:
            distributed.run(QUERY, runs=10)  # populates the context cache
            distributed.apply_update(added=added)
            refreshed = distributed.run(QUERY, runs=40)
        finally:
            distributed.close_coordinator()
            backend.close()
        assert refreshed.frequencies == expected.frequencies
        assert refreshed.cp(("brandnew",)) > 0

    def test_evicted_context_is_reshipped_not_fatal(self):
        """A worker whose LRU evicted a context asks for a re-ship; the
        shard completes instead of crashing the campaign."""
        from repro.distributed import Coordinator, WorkerServer

        server = WorkerServer(context_limit=1)
        server.start()
        workload = key_conflict_workload(
            clean_rows=2, conflict_groups=2, group_size=2, arity=2, seed=41
        )
        generator = UniformGenerator(workload.constraints)
        query = parse_cq("Q(x) :- R(x, y)")

        def context(seed):
            return ShardContext.create(
                "chain",
                {
                    "facts": tuple(workload.database),
                    "generator": generator,
                    "query": query,
                    "candidate": None,
                    "allow_failing": False,
                    "seed": seed,
                    "stream_key": "root",
                },
            )

        coordinator = Coordinator.connect([f"127.0.0.1:{server.port}"])
        try:
            first, second = context(1), context(2)
            baseline = coordinator.run_range(first, 0, 4)
            coordinator.run_range(second, 0, 4)  # evicts `first` (limit 1)
            again = coordinator.run_range(first, 0, 4)  # must re-ship
            assert again == baseline
        finally:
            coordinator.close()
            server.shutdown()


class TestExecutorContextCache:
    def test_lru_eviction_closes_stale_contexts(self):
        executor = ShardExecutor(context_limit=1)
        workload = key_conflict_workload(
            clean_rows=2, conflict_groups=1, group_size=2, arity=2, seed=1
        )
        generator = UniformGenerator(workload.constraints)
        query = parse_cq("Q(x) :- R(x, y)")

        def context(seed):
            return ShardContext.create(
                "chain",
                {
                    "facts": tuple(workload.database),
                    "generator": generator,
                    "query": query,
                    "candidate": None,
                    "allow_failing": False,
                    "seed": seed,
                    "stream_key": "root",
                },
            )

        first, second = context(1), context(2)
        executor.ensure_context(first)
        executor.ensure_context(second)
        assert not executor.has_context(first.context_id)
        assert executor.has_context(second.context_id)
        assert executor.contexts_built == 2
        # Re-ensuring the evicted context rebuilds it.
        executor.ensure_context(first)
        assert executor.contexts_built == 3
        executor.close()

    def test_warm_context_reused_across_shards(self):
        transport = InlineTransport()
        workload = key_conflict_workload(
            clean_rows=2, conflict_groups=2, group_size=2, arity=2, seed=4
        )
        generator = UniformGenerator(workload.constraints)
        context = ShardContext.create(
            "chain",
            {
                "facts": tuple(workload.database),
                "generator": generator,
                "query": parse_cq("Q(x) :- R(x, y)"),
                "candidate": None,
                "allow_failing": False,
                "seed": 77,
                "stream_key": "root",
            },
        )
        transport.run_shard(context, 0, 0, 5)
        transport.run_shard(context, 1, 5, 5)
        assert transport.executor.contexts_built == 1
        assert transport.executor.shards_run == 2
        transport.close()
