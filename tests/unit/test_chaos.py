"""Unit tests for the chaos layer: fault plans, failpoints, the chaos
transport, coordinator reconnect/backoff, and the worker server's
malformed-frame accounting."""

import socket
import time

import pytest

from repro import UniformGenerator
from repro.campaign import add_tallies
from repro.distributed import (
    Coordinator,
    InlineTransport,
    ReconnectPolicy,
    ShardContext,
    WorkerServer,
    WorkerTransport,
)
from repro.distributed.chaos import (
    ChaosTransport,
    FailpointError,
    FaultPlan,
    clear_failpoints,
    failpoint,
    failpoint_fired,
    parse_failpoints,
    set_failpoint,
)
from repro.distributed.protocol import recv_message, send_message
from repro.distributed.transport import WorkerUnavailable
from repro.obs import FAULTS
from repro.queries import parse_cq
from repro.workloads import key_conflict_workload


@pytest.fixture(autouse=True)
def _clean_failpoints():
    clear_failpoints()
    yield
    clear_failpoints()


def _chain_context(seed=11):
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


class TestFaultPlan:
    @staticmethod
    def _drain(stream, count):
        return [stream.next_fault() for _ in range(count)]

    def test_streams_are_deterministic_per_seed_and_name(self):
        plan = FaultPlan.create(99)
        first = self._drain(plan.stream("conn0:c2w"), 50)
        again = self._drain(plan.stream("conn0:c2w"), 50)
        assert first == again

    def test_distinct_streams_decorrelate(self):
        plan = FaultPlan.create(99, rates={"corrupt": 0.5, "delay": 0.4})
        assert self._drain(plan.stream("a"), 100) != self._drain(
            plan.stream("b"), 100
        )

    def test_distinct_seeds_differ(self):
        rates = {"corrupt": 0.5}
        one = FaultPlan.create(1, rates=rates).stream("s")
        two = FaultPlan.create(2, rates=rates).stream("s")
        assert [one.next_fault() for _ in range(64)] != [
            two.next_fault() for _ in range(64)
        ]

    def test_zero_rates_never_fault(self):
        stream = FaultPlan.create(7, rates={}).stream("s")
        assert all(stream.next_fault() is None for _ in range(100))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.create(1, rates={"teleport": 1.0})

    def test_describe_names_the_seed(self):
        assert "seed=42" in FaultPlan.create(42).describe()


class TestFailpoints:
    def test_unarmed_failpoint_is_a_noop(self):
        failpoint("nothing.armed.here")

    def test_fires_on_configured_hit(self):
        set_failpoint("x", hit=3)
        failpoint("x")
        failpoint("x")
        assert not failpoint_fired("x")
        with pytest.raises(FailpointError):
            failpoint("x")
        assert failpoint_fired("x")
        failpoint("x")  # fires once, then disarms

    def test_parse_spec(self):
        points = parse_failpoints("a, b:2, c=exit, d:5=exit")
        assert points["a"].hit == 1 and points["a"].action == "raise"
        assert points["b"].hit == 2
        assert points["c"].action == "exit"
        assert points["d"].hit == 5 and points["d"].action == "exit"

    def test_parse_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="action"):
            parse_failpoints("a=explode")

    def test_parse_sleep_actions(self):
        points = parse_failpoints("a=sleep, b:2=sleep0.5")
        assert points["a"].action == "sleep"
        assert points["b"].hit == 2 and points["b"].action == "sleep0.5"

    def test_parse_rejects_nonpositive_sleep(self):
        with pytest.raises(ValueError, match="action"):
            parse_failpoints("a=sleep0")
        with pytest.raises(ValueError, match="action"):
            parse_failpoints("a=sleep-1")

    def test_sleep_action_stalls_then_continues(self):
        set_failpoint("stall", action="sleep0.05")
        started = time.monotonic()
        failpoint("stall")  # stalls — but does not raise
        assert time.monotonic() - started >= 0.05
        assert failpoint_fired("stall")
        # Subsequent hits pass straight through (one-shot, like raise).
        started = time.monotonic()
        failpoint("stall")
        assert time.monotonic() - started < 0.05


class _FlakyTransport(WorkerTransport):
    """Dies on its first shard, answers reconnect, then computes via an
    inline executor — the minimal worker-that-comes-back."""

    def __init__(self, name="flaky"):
        self.name = name
        self.inner = InlineTransport(name=f"{name}-inner")
        self.failures_left = 1
        self.reconnect_calls = 0

    def bind_campaign(self, campaign_id):
        self.campaign_id = campaign_id
        self.inner.bind_campaign(campaign_id)

    def ensure_context(self, context, timeout=None):
        self.inner.ensure_context(context)

    def run_shard(self, context, shard_id, start, count, timeout=None,
                  deadline=None):
        if self.failures_left > 0:
            self.failures_left -= 1
            self.alive = False
            raise WorkerUnavailable(f"{self.name} flapped")
        return self.inner.run_shard(context, shard_id, start, count,
                                    deadline=deadline)

    def reconnect(self):
        self.reconnect_calls += 1
        self.alive = True
        return True

    def close(self):
        self.inner.close()


class TestCoordinatorReconnect:
    def test_flapped_worker_rejoins_and_results_match_serial(self):
        context = _chain_context()
        serial = InlineTransport().run_shard(context, 0, 0, 40)
        flaky = _FlakyTransport()
        coordinator = Coordinator(
            [flaky],
            shard_size=10,
            fallback_inline=False,
            reconnect=ReconnectPolicy(retry_budget=4, base_delay=0.01),
        )
        try:
            outcomes = coordinator.run_range(context, 0, 40)
        finally:
            coordinator.close()
        assert outcomes == serial
        assert flaky.reconnect_calls >= 1
        assert coordinator.reconnects >= 1
        report = coordinator.degradation_report()
        assert report["reconnects"] >= 1
        assert report["releases"] >= 1
        assert any("reconnected" in event for event in report["events"])
        assert report["workers"][0]["alive"]

    def test_zero_retry_budget_restores_one_strike_behavior(self):
        context = _chain_context()
        flaky = _FlakyTransport()
        coordinator = Coordinator(
            [flaky],
            shard_size=10,
            fallback_inline=True,
            reconnect=ReconnectPolicy(retry_budget=0),
        )
        try:
            outcomes = coordinator.run_range(context, 0, 40)
        finally:
            coordinator.close()
        assert outcomes.draws == 40
        assert flaky.reconnect_calls == 0
        report = coordinator.degradation_report()
        assert report["inline_fallback"]
        assert any("inline" in event for event in report["events"])

    def test_abandoned_worker_degrades_to_inline(self):
        context = _chain_context()

        class _DeadForever(_FlakyTransport):
            def __init__(self):
                super().__init__(name="dead")
                self.failures_left = 10**9

            def reconnect(self):
                self.reconnect_calls += 1
                return False

        dead = _DeadForever()
        coordinator = Coordinator(
            [dead],
            shard_size=20,
            fallback_inline=True,
            reconnect=ReconnectPolicy(retry_budget=2, base_delay=0.01),
        )
        try:
            outcomes = coordinator.run_range(context, 0, 40)
        finally:
            coordinator.close()
        assert outcomes.draws == 40
        assert dead.reconnect_calls == 2
        report = coordinator.degradation_report()
        assert any("abandoned" in event for event in report["events"])
        assert report["inline_fallback"]

    def test_budget_exhaustion_steps_ladder_exactly_once(self):
        """Exhausting one worker's retry budget mid-reconnect abandons it
        exactly once — the fleet steps down one rung (to the surviving
        worker), not two (to inline), and the report records one event."""
        context = _chain_context()
        serial = InlineTransport().run_shard(context, 0, 0, 40)

        class _DeadForever(_FlakyTransport):
            def __init__(self):
                super().__init__(name="dead")
                self.failures_left = 10**9

            def reconnect(self):
                self.reconnect_calls += 1
                return False

        class _SlowInline(InlineTransport):
            # Slow enough that the table outlives the dead worker's
            # whole backoff schedule (so the budget truly exhausts
            # instead of short-circuiting on table completion).
            def run_shard(self, context, shard_id, start, count,
                          timeout=None, deadline=None):
                time.sleep(0.08)
                return super().run_shard(context, shard_id, start, count,
                                         timeout=timeout, deadline=deadline)

        dead = _DeadForever()
        healthy = _SlowInline(name="healthy")
        coordinator = Coordinator(
            [dead, healthy],
            shard_size=10,
            fallback_inline=True,
            reconnect=ReconnectPolicy(retry_budget=3, base_delay=0.01),
        )
        try:
            outcomes = coordinator.run_range(context, 0, 40)
        finally:
            coordinator.close()
        assert outcomes == serial
        # The budget was spent fully, once — not re-entered per shard.
        assert dead.reconnect_calls == 3
        report = coordinator.degradation_report()
        abandons = [e for e in report["events"] if "abandoned" in e]
        assert len(abandons) == 1
        assert "3 reconnect attempt(s)" in abandons[0]
        # One rung down: the healthy worker absorbed the load; the
        # second rung (inline fallback) was never needed.
        assert not report["inline_fallback"]
        dead_report = next(
            w for w in report["workers"] if w["name"] == "dead"
        )
        assert not dead_report["alive"]


    class _SteadyInline(InlineTransport):
        """A worker that takes 0.02 s per shard: a range of a few
        shards ends well inside the first 0.25-s reconnect backoff."""

        def run_shard(self, context, shard_id, start, count, timeout=None,
                      deadline=None):
            time.sleep(0.02)
            return super().run_shard(context, shard_id, start, count,
                                     timeout=timeout, deadline=deadline)

    def test_worker_lost_late_in_a_range_is_probed_at_the_next(self):
        """A worker lost while the rest of the fleet finishes its range
        keeps its reconnect budget: the next range probes it at once,
        and it serves shards again."""
        context = _chain_context()
        serial = InlineTransport().run_shard(context, 0, 0, 100)
        flaky = _FlakyTransport()
        coordinator = Coordinator(
            [self._SteadyInline(name="steady"), flaky], shard_size=5
        )
        try:
            tallies = [
                coordinator.run_range(context, start, 20)
                for start in range(0, 100, 20)
            ]
        finally:
            coordinator.close()
        assert add_tallies(tallies) == serial
        assert flaky.reconnect_calls == 1
        assert flaky.inner.executor.shards_run > 0
        report = coordinator.degradation_report()
        assert report["releases"] == 1
        assert report["reconnects"] == 1
        assert report["events"] == ["flaky: reconnected on attempt 1/6"]
        assert all(worker["alive"] for worker in report["workers"])

    def test_budget_spent_across_ranges_abandons_once(self):
        """A lost worker that never answers spends its budget one probe
        per range, is abandoned once, and is not probed after that."""
        context = _chain_context()

        class _DeadForever(_FlakyTransport):
            def __init__(self):
                super().__init__(name="dead")
                self.failures_left = 10**9

            def reconnect(self):
                self.reconnect_calls += 1
                return False

        dead = _DeadForever()
        coordinator = Coordinator(
            [self._SteadyInline(name="steady"), dead],
            shard_size=5,
            reconnect=ReconnectPolicy(retry_budget=3),
        )
        try:
            for start in range(0, 240, 20):
                coordinator.run_range(context, start, 20)
        finally:
            coordinator.close()
        assert dead.reconnect_calls == 3
        events = coordinator.degradation_report()["events"]
        assert events == ["dead: abandoned after 3 reconnect attempt(s)"]


class TestChaosTransport:
    def test_faulty_fleet_matches_clean_run(self):
        context = _chain_context(seed=5)
        serial = InlineTransport().run_shard(context, 0, 0, 60)
        plan = FaultPlan.create(1234, rates={"flap": 0.3, "delay": 0.1},
                                delay_seconds=0.005)
        chaotic = [
            ChaosTransport(InlineTransport(name=f"w{i}"), plan)
            for i in range(3)
        ]
        coordinator = Coordinator(
            chaotic,
            shard_size=5,
            reconnect=ReconnectPolicy(retry_budget=5, base_delay=0.01),
        )
        try:
            outcomes = coordinator.run_range(context, 0, 60)
        finally:
            coordinator.close()
        assert outcomes == serial
        injected = sum(t.counters.failures for t in chaotic)
        healed = sum(t.counters.reconnects for t in chaotic)
        assert injected > 0, plan.describe()
        assert healed > 0, plan.describe()


class TestWorkerServerFaultAccounting:
    def test_malformed_frame_counted_logged_and_connection_closed(self):
        from repro.diagnostics import cache_report

        FAULTS.reset()
        server = WorkerServer()
        thread = server.start()
        try:
            sock = socket.create_connection((server.host, server.port), timeout=5)
            try:
                send_message(sock, {"type": "hello"})
                sock.settimeout(5)
                header, _ = recv_message(sock)
                assert header["type"] == "welcome"
                # Now poison the stream: bad magic mid-connection.
                sock.sendall(b"XXXX" + b"\x00" * 8)
                # The worker closes without sending a (fatal) error frame.
                deadline = time.monotonic() + 5
                leftover = b""
                while time.monotonic() < deadline:
                    try:
                        chunk = sock.recv(4096)
                    except socket.timeout:
                        continue
                    if not chunk:
                        break
                    leftover += chunk
                assert leftover == b""
            finally:
                sock.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if server.fault_counts.get("malformed_frames"):
                    break
                time.sleep(0.02)
            assert server.fault_counts.get("malformed_frames", 0) >= 1
            assert cache_report().faults.get("malformed_frames", 0) >= 1
        finally:
            server.shutdown()
            thread.join(timeout=5)
            FAULTS.reset()

    def test_faults_surface_in_cache_report(self):
        from repro.diagnostics import cache_report

        FAULTS.reset()
        try:
            FAULTS.inc(kind="malformed_frames")
            FAULTS.inc(2, kind="crc_failures")
            report = cache_report()
            assert report.faults == {"malformed_frames": 1, "crc_failures": 2}
            text = report.format()
            assert "faults absorbed" in text
            assert "crc_failures=2" in text
        finally:
            FAULTS.reset()


class TestFailpointsInWorkerPaths:
    def test_mid_shard_failpoint_is_transient_and_healed(self):
        # A failpoint crash mid-shard must be reported non-fatal, so the
        # coordinator re-leases (here: onto the inline fallback) and the
        # campaign still matches the clean run byte for byte.
        context = _chain_context(seed=3)
        serial = InlineTransport().run_shard(context, 0, 0, 40)
        server = WorkerServer()
        thread = server.start()
        set_failpoint("worker.mid_shard", hit=1)
        try:
            coordinator = Coordinator.from_options(
                worker_addresses=[f"127.0.0.1:{server.port}"],
                shard_size=10,
                lease_timeout=10,
            )
            try:
                outcomes = coordinator.run_range(context, 0, 40)
            finally:
                coordinator.close()
        finally:
            clear_failpoints()
            server.shutdown()
            thread.join(timeout=5)
        assert outcomes == serial


class TestOneLivenessRule:
    """Silence past the lease timeout is the only way a worker is lost:
    pool and socket workers heartbeat through slow shards and slow
    context builds alike."""

    def test_slow_pool_shards_keep_their_leases(self):
        from repro.distributed import LocalPoolTransport

        context = _chain_context(seed=5)
        serial = InlineTransport().run_shard(context, 0, 0, 40)
        # Armed before the fork, so each pool worker sleeps through its
        # first shard.
        set_failpoint("worker.mid_shard", action="sleep5")
        try:
            coordinator = Coordinator(
                LocalPoolTransport.spawn(2), shard_size=20, lease_timeout=2.5
            )
        finally:
            clear_failpoints()
        try:
            outcomes = coordinator.run_range(context, 0, 40)
            report = coordinator.degradation_report()
        finally:
            coordinator.close()
        assert outcomes == serial
        assert report["releases"] == 0
        assert report["inline_shards"] == 0
        assert all(worker["alive"] for worker in report["workers"])

    def test_slow_context_build_keeps_its_lease(self):
        context = _chain_context(seed=6)
        serial = InlineTransport().run_shard(context, 0, 0, 40)
        server = WorkerServer()
        thread = server.start()
        set_failpoint("worker.context_build", action="sleep5")
        try:
            coordinator = Coordinator.from_options(
                worker_addresses=[f"127.0.0.1:{server.port}"],
                shard_size=10,
                lease_timeout=2.5,
            )
            try:
                outcomes = coordinator.run_range(context, 0, 40)
                report = coordinator.degradation_report()
            finally:
                coordinator.close()
            assert failpoint_fired("worker.context_build")
        finally:
            clear_failpoints()
            server.shutdown()
            thread.join(timeout=5)
        assert outcomes == serial
        assert report["releases"] == 0
        assert report["reconnects"] == 0
        assert report["inline_shards"] == 0
