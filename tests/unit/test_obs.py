"""Tests for the observability layer: the metrics registry and its
Prometheus exposition, remote snapshot merging, the ``REPRO_METRICS``
kill switch, trace span logs (rotation included), the ``ocqa top``
renderer, and the end-to-end ``/metrics`` surface of a distributed
campaign — plus the concurrency hammer proving exposition snapshots
stay consistent mid-write."""

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from repro.diagnostics import cache_report
from repro.obs import FAULTS, SHEDS, overload_stats, record_drain
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    MetricsRegistry,
    histogram_quantile,
    parse_prometheus_text,
)
from repro.obs.top import format_screen, run_top


@pytest.fixture(autouse=True)
def _clean_slate():
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()
    yield
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_counts_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_counter_tracks_series_independently(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help", ("tenant",))
        counter.inc(tenant="a")
        counter.inc(2, tenant="b")
        assert counter.value(tenant="a") == 1
        assert counter.value(tenant="b") == 2
        with pytest.raises(ValueError):
            counter.inc(wrong="a")

    def test_gauge_set_and_set_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t", "help")
        gauge.set(3.5)
        gauge.set_max(2.0)
        assert gauge.value() == 3.5
        gauge.set_max(7.0)
        assert gauge.value() == 7.0

    def test_histogram_buckets_cumulative_in_render(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = registry.render()
        parsed = parse_prometheus_text(text)
        buckets = {s[0]["le"]: s[1] for s in parsed["t_seconds_bucket"]}
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
        assert parsed["t_seconds_count"][0][1] == 3.0
        assert parsed["t_seconds_sum"][0][1] == pytest.approx(5.55)

    def test_get_or_create_rejects_kind_and_label_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help", ("a",))
        assert registry.counter("t_total", "help", ("a",)) is registry.get(
            "t_total"
        )
        with pytest.raises(ValueError):
            registry.gauge("t_total", "help")
        with pytest.raises(ValueError):
            registry.counter("t_total", "help", ("b",))

    def test_unlabelled_metrics_expose_zero_from_birth(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help")
        parsed = parse_prometheus_text(registry.render())
        assert parsed["t_total"] == [({}, 0.0)]

    def test_render_parse_round_trip_with_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help", ("name",))
        counter.inc(3, name='we"ird\\na\nme')
        parsed = parse_prometheus_text(registry.render())
        assert parsed["t_total"] == [({"name": 'we"ird\\na\nme'}, 3.0)]

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus text {{{")

    def test_remote_snapshots_sum_with_local_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help", ("tenant",))
        counter.inc(2, tenant="a")
        remote = MetricsRegistry()
        remote.counter("t_total", "help", ("tenant",)).inc(5, tenant="a")
        registry.record_remote("worker:w1", remote.snapshot())
        parsed = parse_prometheus_text(registry.render())
        assert parsed["t_total"] == [({"tenant": "a"}, 7.0)]
        # Keep-latest per source: a newer snapshot replaces, never adds.
        remote.counter("t_total", "help", ("tenant",)).inc(1, tenant="a")
        registry.record_remote("worker:w1", remote.snapshot())
        parsed = parse_prometheus_text(registry.render())
        assert parsed["t_total"] == [({"tenant": "a"}, 8.0)]
        assert registry.remote_sources() == ["worker:w1"]

    def test_incompatible_remote_push_is_skipped(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help").inc(2)
        remote = MetricsRegistry()
        remote.gauge("t_total", "help").set(99)
        registry.record_remote("worker:bad", remote.snapshot())
        parsed = parse_prometheus_text(registry.render())
        assert parsed["t_total"] == [({}, 2.0)]

    def test_histogram_quantile_interpolates(self):
        buckets = [(0.1, 10.0), (1.0, 90.0), (float("inf"), 100.0)]
        assert histogram_quantile(buckets, 0.05) == pytest.approx(0.05)
        median = histogram_quantile(buckets, 0.5)
        assert 0.1 < median < 1.0
        assert histogram_quantile([], 0.5) is None

    def test_kill_switch_disables_mutation_except_always(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        assert not obs_metrics.metrics_enabled()
        registry = MetricsRegistry()
        registry.counter("t_total", "help").inc(5)
        assert registry.counter("t_total", "help").value() == 0
        always = registry.counter("a_total", "help", always=True)
        always.inc(5)
        assert always.value() == 5
        monkeypatch.delenv("REPRO_METRICS")
        assert obs_metrics.metrics_enabled()

    def test_collectors_run_at_render_and_swallow_errors(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t", "help")

        def publish():
            gauge.set(42)

        def broken():
            raise RuntimeError("collector bug")

        registry.add_collector(publish)
        registry.add_collector(broken)
        parsed = parse_prometheus_text(registry.render())
        assert parsed["t"] == [({}, 42.0)]
        registry.remove_collector(publish)
        registry.remove_collector(broken)


# ----------------------------------------------------------------------
# The kill switch on the receiving end of a socket worker
# ----------------------------------------------------------------------
class TestKillSwitchOverTheWire:
    def test_disabled_parent_ignores_socket_worker_snapshots(self, monkeypatch):
        """A socket worker attaches its telemetry snapshot whenever its
        *own* telemetry is on; a parent running with REPRO_METRICS=0 must
        not merge it."""
        from repro import UniformGenerator
        from repro.distributed import Coordinator, ShardContext
        from repro.queries import parse_cq
        from repro.workloads import key_conflict_workload

        workload = key_conflict_workload(
            clean_rows=2, conflict_groups=2, group_size=2, arity=2, seed=4
        )
        context = ShardContext.create(
            "chain",
            {
                "facts": tuple(workload.database),
                "generator": UniformGenerator(workload.constraints),
                "query": parse_cq("Q(x) :- R(x, y)"),
                "candidate": None,
                "allow_failing": False,
                "seed": 3,
                "stream_key": "root",
            },
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {
            **os.environ,
            "REPRO_METRICS": "1",
            "PYTHONPATH": os.path.abspath(src),
        }
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            announce = worker.stdout.readline()
            match = re.search(r"listening on (127\.0\.0\.1:\d+)", announce)
            assert match, "the worker did not announce its address"
            address = match.group(1)
            source = f"worker:{address}"

            def run_campaign():
                coordinator = Coordinator.from_options(
                    worker_addresses=[address], shard_size=10
                )
                try:
                    coordinator.run_range(context, 0, 20)
                finally:
                    coordinator.close()

            monkeypatch.setenv("REPRO_METRICS", "0")
            run_campaign()
            assert source not in obs_metrics.REGISTRY.remote_sources()
            # The same worker's snapshots do merge once the parent's
            # telemetry is back on, so the check above is not vacuous.
            monkeypatch.delenv("REPRO_METRICS")
            run_campaign()
            assert source in obs_metrics.REGISTRY.remote_sources()
            obs_metrics.REGISTRY.discard_remote(source)
        finally:
            worker.terminate()
            worker.wait(timeout=30)


# ----------------------------------------------------------------------
# Concurrency hammer (no lost increments, parseable mid-write)
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_hammered_counters_lose_nothing_and_render_stays_valid(self):
        threads_n, per_thread = 8, 500
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "help", buckets=(0.5, 1.0))
        start = threading.Barrier(threads_n + 1)
        render_errors = []

        def writer(index):
            start.wait()
            for i in range(per_thread):
                FAULTS.inc(kind=f"kind{index % 2}")
                SHEDS.inc(reason="queue_full")
                hist.observe((i % 3) * 0.4)

        def reader():
            start.wait()
            for _ in range(50):
                try:
                    parse_prometheus_text(obs_metrics.REGISTRY.render())
                    parse_prometheus_text(registry.render())
                except ValueError as exc:  # pragma: no cover - the failure
                    render_errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(index,))
            for index in range(threads_n)
        ]
        observer = threading.Thread(target=reader)
        for thread in [*workers, observer]:
            thread.start()
        for thread in [*workers, observer]:
            thread.join()
        assert not render_errors
        faults = cache_report().faults
        assert faults["kind0"] + faults["kind1"] == threads_n * per_thread
        assert overload_stats()["sheds"]["queue_full"] == threads_n * per_thread
        count, total = hist.count_sum()
        assert count == threads_n * per_thread
        assert total == pytest.approx(
            sum((i % 3) * 0.4 for i in range(per_thread)) * threads_n
        )


# ----------------------------------------------------------------------
# Drain accounting stays bounded (satellite: _DRAIN_SECONDS ring)
# ----------------------------------------------------------------------
class TestDrainRing:
    def test_ring_bounds_samples_but_aggregates_stay_exact(self):
        for index in range(200):
            record_drain(0.01 * (index + 1))
        stats = overload_stats()
        assert len(stats["drain_seconds"]) == 64
        assert stats["drains"] == 200
        assert stats["drain_seconds_max"] == pytest.approx(2.0)
        assert stats["drain_seconds_sum"] == pytest.approx(
            sum(0.01 * (i + 1) for i in range(200)), rel=1e-4
        )
        # The ring keeps the most recent drains.
        assert stats["drain_seconds"][-1] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------
class TestTrace:
    def test_disabled_without_env_or_configure(self, tmp_path):
        assert not obs_trace.enabled()
        obs_trace.span("noop", value=1)  # must not raise or create files

    def test_spans_are_json_lines_with_ts_and_pid(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs_trace.configure(path)
        obs_trace.span("shard_lease", campaign="c1", shard=3)
        obs_trace.span("admission", tenant="acme", decision="admitted")
        obs_trace.reset()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        assert [line["event"] for line in lines] == ["shard_lease", "admission"]
        for line in lines:
            assert line["pid"] == os.getpid()
            assert isinstance(line["ts"], float)
        assert lines[0]["campaign"] == "c1" and lines[0]["shard"] == 3

    def test_env_var_enables_and_rotation_caps_size(self, tmp_path, monkeypatch):
        path = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "512")
        obs_trace.reset()
        for index in range(200):
            obs_trace.span("draw_batch", index=index, payload="x" * 32)
        obs_trace.reset()
        rotated = path + ".1"
        assert os.path.exists(path) and os.path.exists(rotated)
        assert os.path.getsize(path) <= 4096
        for source in (path, rotated):
            for line in open(source, encoding="utf-8").read().splitlines():
                assert json.loads(line)["event"] == "draw_batch"


# ----------------------------------------------------------------------
# ocqa top
# ----------------------------------------------------------------------
def _sample_exposition():
    registry = MetricsRegistry()
    registry.gauge("ocqa_queue_depth", "h").set(3)
    registry.gauge("ocqa_queue_depth_high_water", "h").set(7)
    registry.gauge("ocqa_running_queries", "h").set(2)
    registry.gauge("ocqa_active_leases", "h").set(4)
    registry.gauge("ocqa_lease_age_seconds_max", "h").set(1.5)
    registry.counter("ocqa_draws_total", "h", ("tenant",)).inc(120, tenant="acme")
    registry.counter("ocqa_sheds_total", "h", ("reason",)).inc(2, reason="queue_full")
    hist = registry.histogram(
        "ocqa_query_latency_seconds", "h", ("tenant",), buckets=(0.1, 1.0)
    )
    for value in (0.05, 0.2, 0.3):
        hist.observe(value, tenant="acme")
    registry.gauge("ocqa_cache_hits", "h", ("cache",)).set(30, cache="prepared")
    registry.gauge("ocqa_cache_misses", "h", ("cache",)).set(10, cache="prepared")
    return registry.render()


class TestTop:
    def test_format_screen_shows_queue_tenants_latency_and_leases(self):
        status = {
            "name": "svc",
            "uptime_seconds": 12.0,
            "queries_served": 5,
            "draining": False,
            "admission": {
                "running": 2,
                "queued": 3,
                "max_concurrent": 8,
                "max_queue_depth": 16,
            },
        }
        samples = parse_prometheus_text(_sample_exposition())
        screen = format_screen(status, samples, None, interval=2.0)
        assert "service svc" in screen
        assert "queued 3" in screen and "high-water 7" in screen
        assert "acme: 120 draws" in screen
        assert "p95" in screen
        assert "active 4" in screen and "oldest lease 1.5s" in screen
        assert "prepared 75% of 40" in screen
        assert "queue_full=2" in screen

    def test_rates_come_from_counter_deltas(self):
        first = parse_prometheus_text(_sample_exposition())
        bumped = _sample_exposition().replace(
            'ocqa_draws_total{tenant="acme"} 120',
            'ocqa_draws_total{tenant="acme"} 220',
        )
        second = parse_prometheus_text(bumped)
        screen = format_screen(None, second, first, interval=2.0)
        assert "50/s" in screen

    def test_result_cache_is_listed_once(self):
        """The result cache has its own line; the caches row lists only
        the shared lru_cache memos, not the result cache a second time."""
        from repro.service.server import QueryService

        payload = {
            "database": {"R": [["a", "b"], ["a", "c"], ["d", "e"]]},
            "constraints": "R(x, y), R(x, z) -> y = z",
            "query": "Q(x) :- R(x, y)",
            "runs": 20,
            "seed": 7,
        }
        service = QueryService(name="top-once")
        try:
            for _ in range(2):  # a miss, then a hit
                status, body = service.handle_query(payload)
                assert status == 200, body
            samples = parse_prometheus_text(obs_metrics.REGISTRY.render())
        finally:
            service.close()
        screen = format_screen(None, samples, None, interval=2.0)
        assert "  caches: " in screen
        mentions = [line for line in screen.splitlines() if "result" in line]
        assert mentions == ["  result cache: hits 1/2 (50%)"], screen

    def test_run_top_returns_error_when_never_scraped(self):
        assert run_top(lambda what: None, iterations=2, sleep=lambda s: None) == 1

    def test_run_top_renders_without_status(self, capsys):
        def fetch(what):
            return _sample_exposition() if what == "metrics" else None

        assert (
            run_top(fetch, iterations=1, clear=False, sleep=lambda s: None) == 0
        )
        out = capsys.readouterr().out
        assert "acme" in out


# ----------------------------------------------------------------------
# End-to-end: a distributed campaign's /metrics scrape
# ----------------------------------------------------------------------
class TestServiceMetricsEndpoint:
    def test_distributed_campaign_exposes_fleet_series(self):
        import urllib.request

        from repro.service.server import QueryService
        from repro.service.supervisor import Supervisor

        payload = {
            "tenant": "acme",
            "database": {"R": [["a", "1"], ["a", "2"], ["b", "3"]]},
            "constraints": "R(x, y), R(x, z) -> y = z",
            "query": "Q(x) :- R(x, y)",
            "runs": 40,
            "seed": 7,
        }
        with Supervisor(workers=2) as fleet, QueryService(
            "127.0.0.1", 0, fleet=fleet, name="obs-test"
        ) as service:
            host, port = service.address
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                body = json.loads(response.read())
            assert body["ok"], body
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode("utf-8")
        parsed = parse_prometheus_text(text)
        for family in (
            "ocqa_draws_total",
            "ocqa_queue_depth",
            "ocqa_query_latency_seconds_bucket",
            "ocqa_admission_decisions_total",
            "ocqa_queries_total",
            "ocqa_shard_leases_total",
            "ocqa_shard_completions_total",
            "ocqa_worker_shards_total",
            "ocqa_worker_draws_total",
        ):
            assert family in parsed, f"missing {family}"
        draws = {
            sample[0]["tenant"]: sample[1]
            for sample in parsed["ocqa_draws_total"]
        }
        assert draws.get("acme", 0) >= 40
        admitted = {
            (sample[0]["tenant"], sample[0]["decision"]): sample[1]
            for sample in parsed["ocqa_admission_decisions_total"]
        }
        assert admitted[("acme", "admitted")] >= 1
        latency = [
            sample
            for sample in parsed["ocqa_query_latency_seconds_bucket"]
            if sample[0]["tenant"] == "acme" and sample[0]["le"] == "+Inf"
        ]
        assert latency and latency[0][1] >= 1
        # The fleet workers' pushed snapshots merged into the scrape.
        assert parsed["ocqa_worker_draws_total"][0][1] >= 40


# ----------------------------------------------------------------------
# Exited pool workers fold into one retained snapshot
# ----------------------------------------------------------------------
class TestRetiredPoolWorkers:
    def test_per_query_pools_do_not_pile_up(self):
        """A caller that opens a fresh two-worker pool for each campaign
        and closes it afterwards leaves no sources behind: each pool's
        snapshots are folded in when its processes exit, so the registry
        holds O(live workers) sources while the rendered fleet counters
        keep rising."""
        import random

        from repro.constraints import ConstraintSet, parse_constraints
        from repro.db.facts import Database, Fact
        from repro.db.schema import Schema
        from repro.distributed import Coordinator
        from repro.queries import parse_cq
        from repro.sql import ConstraintRepairSampler, SQLiteBackend

        database = Database.of(
            Fact("R", ("a", "1")), Fact("R", ("a", "2")), Fact("R", ("b", "3"))
        )
        constraints = ConstraintSet(parse_constraints("R(x, y), R(x, z) -> y = z"))
        schema = Schema.infer(database)
        draws = []
        for seed in range(6):
            coordinator = Coordinator.from_options(workers=2)
            backend = SQLiteBackend()
            try:
                backend.load(database, schema)
                sampler = ConstraintRepairSampler(
                    backend,
                    schema,
                    constraints,
                    rng=random.Random(seed),
                    coordinator=coordinator,
                )
                sampler.run(parse_cq("Q(x) :- R(x, y)"), runs=40)
            finally:
                coordinator.close()
                backend.close()
            assert len(obs_metrics.REGISTRY.remote_sources()) <= 2
            parsed = parse_prometheus_text(obs_metrics.REGISTRY.render())
            draws.append(sum(v for _, v in parsed["ocqa_worker_draws_total"]))
        assert all(later > earlier for earlier, later in zip(draws, draws[1:])), draws
        assert draws[-1] >= 6 * 40
        # Retired workers still count: each campaign's pool pushed at least once.
        assert cache_report().worker_count >= 6


# ----------------------------------------------------------------------
# Acceptance: trace log vs. degradation_report on a chaotic run
# ----------------------------------------------------------------------
class TestTraceMatchesDegradation:
    def test_release_spans_match_report_counts(self, tmp_path):
        from repro import UniformGenerator
        from repro.distributed import (
            Coordinator,
            InlineTransport,
            ReconnectPolicy,
            ShardContext,
            WorkerTransport,
        )
        from repro.distributed.transport import WorkerUnavailable
        from repro.queries import parse_cq
        from repro.workloads import key_conflict_workload

        class _Flaky(WorkerTransport):
            def __init__(self):
                self.name = "flaky"
                self.inner = InlineTransport(name="flaky-inner")
                self.failures_left = 2

            def bind_campaign(self, campaign_id):
                self.campaign_id = campaign_id
                self.inner.bind_campaign(campaign_id)

            def ensure_context(self, context, timeout=None):
                self.inner.ensure_context(context)

            def run_shard(self, context, shard_id, start, count,
                          timeout=None, deadline=None):
                if self.failures_left > 0:
                    self.failures_left -= 1
                    self.alive = False
                    raise WorkerUnavailable("flapped")
                return self.inner.run_shard(
                    context, shard_id, start, count, deadline=deadline
                )

            def reconnect(self):
                self.alive = True
                return True

            def close(self):
                self.inner.close()

        workload = key_conflict_workload(
            clean_rows=2, conflict_groups=2, group_size=2, arity=2, seed=4
        )
        context = ShardContext.create(
            "chain",
            {
                "facts": tuple(workload.database),
                "generator": UniformGenerator(workload.constraints),
                "query": parse_cq("Q(x) :- R(x, y)"),
                "candidate": None,
                "allow_failing": False,
                "seed": 11,
                "stream_key": "root",
            },
        )
        trace_path = str(tmp_path / "trace.jsonl")
        obs_trace.configure(trace_path)
        coordinator = Coordinator(
            [_Flaky()],
            shard_size=10,
            fallback_inline=False,
            reconnect=ReconnectPolicy(retry_budget=4, base_delay=0.01),
        )
        try:
            outcomes = coordinator.run_range(context, 0, 40)
        finally:
            report = coordinator.degradation_report()
            coordinator.close()
            obs_trace.reset()
        assert outcomes.draws == 40
        events = [
            json.loads(line)
            for line in open(trace_path, encoding="utf-8").read().splitlines()
        ]
        campaign = coordinator.campaign_id
        releases = [
            event
            for event in events
            if event["event"] == "shard_release"
            and event["campaign"] == campaign
        ]
        assert len(releases) == report["releases"] >= 1
        reconnects = [
            event
            for event in events
            if event["event"] == "reconnect" and event["campaign"] == campaign
        ]
        assert len(reconnects) == report["reconnects"] >= 1
        completes = [
            event
            for event in events
            if event["event"] == "shard_complete"
            and event["campaign"] == campaign
        ]
        assert len(completes) == 4  # 40 draws / shard_size 10
        leases = [
            event
            for event in events
            if event["event"] == "shard_lease"
            and event["campaign"] == campaign
        ]
        # Every release implies a re-lease: leases = completions + releases.
        assert len(leases) == len(completes) + len(releases)
