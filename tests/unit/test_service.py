"""Unit tests for the overload-robustness layer: deadlines, admission
control (quotas, sheds, draw budgets), the overload diagnostics
registry, and the query service's request handling — all driven without
sockets via :meth:`QueryService.handle_query`."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.bernstein import widened_epsilon
from repro.diagnostics import cache_report
from repro.obs import (
    DEADLINE_EXPIRATIONS,
    QUEUE_DEPTH,
    QUEUE_HIGH_WATER,
    SHEDS,
    overload_stats,
    record_drain,
)
from repro.obs import metrics as obs_metrics
from repro.service import (
    AdmissionController,
    BudgetExhausted,
    Deadline,
    DeadlineExpired,
    Overloaded,
    RetriableServiceError,
    TenantQuota,
)
from repro.service.server import QueryService, ServiceUnavailable


@pytest.fixture(autouse=True)
def _clean_overload_stats():
    obs_metrics.REGISTRY.reset()
    yield
    obs_metrics.REGISTRY.reset()


class TestDeadline:
    def test_after_counts_down(self):
        deadline = Deadline.after(5.0)
        assert 0 < deadline.remaining() <= 5.0
        assert not deadline.expired

    def test_after_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Deadline.after(0)
        with pytest.raises(ValueError):
            Deadline.after(-1.5)

    def test_after_rejects_non_finite(self):
        # ``nan <= 0`` is false, so a sign check alone lets NaN through
        # and the deadline never expires; an infinite one never does
        # either.
        for seconds in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Deadline.after(seconds)

    def test_already_expired_sentinel(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        assert deadline.remaining() <= 0.0  # negative once expired
        with pytest.raises(DeadlineExpired):
            deadline.check("unit test")

    def test_check_names_the_operation(self):
        with pytest.raises(DeadlineExpired, match="shard 7"):
            Deadline(0.0).check("shard 7")

    def test_clamp_bounds_timeouts(self):
        deadline = Deadline.after(0.5)
        assert deadline.clamp(60.0) <= 0.5
        # Even an expired deadline yields a tiny positive socket timeout.
        assert Deadline(0.0).clamp(60.0) > 0


class TestWidenedEpsilon:
    def test_zero_draws_certifies_nothing(self):
        assert widened_epsilon(0, 0.05) == 1.0

    def test_matches_hoeffding_inversion(self):
        import math

        draws, delta = 1000, 0.05
        expected = math.sqrt(math.log(2.0 / delta) / (2.0 * draws))
        assert widened_epsilon(draws, delta) == pytest.approx(expected)

    def test_monotone_in_draws(self):
        values = [widened_epsilon(n, 0.1) for n in (0, 10, 100, 10_000)]
        assert values == sorted(values, reverse=True)
        assert all(0 < v <= 1.0 for v in values)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            widened_epsilon(-1, 0.1)
        with pytest.raises(ValueError):
            widened_epsilon(10, 0.0)
        with pytest.raises(ValueError):
            widened_epsilon(10, 1.0)


class TestAdmissionController:
    def test_admit_and_release(self):
        admission = AdmissionController(max_concurrent=2)
        with admission.admit("acme"):
            snapshot = admission.snapshot()
            assert snapshot["running"] == 1
        assert admission.snapshot()["running"] == 0

    def test_tenant_concurrency_quota_sheds(self):
        admission = AdmissionController(
            max_concurrent=8,
            quotas={"acme": TenantQuota(max_concurrent=1)},
        )
        ticket = admission.admit("acme")
        try:
            with pytest.raises(Overloaded) as excinfo:
                admission.admit("acme")
            assert excinfo.value.reason == "tenant_concurrency"
            assert excinfo.value.retriable
            assert excinfo.value.retry_after > 0
            # Other tenants are unaffected.
            admission.admit("other").release()
        finally:
            ticket.release()
        # After release the tenant gets back in.
        admission.admit("acme").release()

    def test_queue_full_sheds_immediately(self):
        admission = AdmissionController(
            max_concurrent=1, max_queue_depth=0, max_wait=0.05
        )
        ticket = admission.admit()
        try:
            started = time.monotonic()
            with pytest.raises(Overloaded) as excinfo:
                admission.admit()
            assert excinfo.value.reason == "queue_full"
            # Shed without waiting out max_wait.
            assert time.monotonic() - started < 1.0
        finally:
            ticket.release()

    def test_queue_timeout_sheds_and_records_high_water(self):
        admission = AdmissionController(
            max_concurrent=1, max_queue_depth=4, max_wait=0.05
        )
        ticket = admission.admit()
        try:
            with pytest.raises(Overloaded) as excinfo:
                admission.admit()
            assert excinfo.value.reason == "queue_timeout"
        finally:
            ticket.release()
        stats = overload_stats()
        assert stats["queue_depth_high_water"] >= 1
        assert stats["sheds"]["queue_timeout"] == 1

    def test_queued_request_runs_once_capacity_frees(self):
        admission = AdmissionController(
            max_concurrent=1, max_queue_depth=4, max_wait=5.0
        )
        first = admission.admit()
        admitted = threading.Event()

        def _second():
            with admission.admit():
                admitted.set()

        thread = threading.Thread(target=_second)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        first.release()
        assert admitted.wait(timeout=5.0)
        thread.join(timeout=5.0)

    def test_draw_budget_exhausts_and_refills(self):
        admission = AdmissionController(
            quotas={
                "metered": TenantQuota(
                    max_concurrent=4, draws_per_second=1000.0, burst=100.0
                )
            }
        )
        admission.admit("metered", draws=100).release()
        with pytest.raises(BudgetExhausted) as excinfo:
            admission.admit("metered", draws=100)
        assert excinfo.value.reason == "draw_budget"
        assert excinfo.value.retry_after > 0
        assert overload_stats()["sheds"]["draw_budget"] == 1
        time.sleep(0.12)  # 1000 draws/s refills 100 draws in 0.1s
        admission.admit("metered", draws=100).release()

    def test_release_is_idempotent(self):
        admission = AdmissionController()
        ticket = admission.admit()
        ticket.release()
        ticket.release()
        assert admission.snapshot()["running"] == 0


class TestOverloadDiagnostics:
    def test_quiet_registry_reports_nothing(self):
        assert overload_stats() == {}
        assert "overload" not in cache_report(None).format()

    def test_counters_aggregate_and_format(self):
        for depth in (3, 7, 2):
            QUEUE_DEPTH.set(depth)
            QUEUE_HIGH_WATER.set_max(depth)
        SHEDS.inc(reason="queue_full")
        SHEDS.inc(reason="queue_full")
        SHEDS.inc(reason="worker_busy")
        DEADLINE_EXPIRATIONS.inc()
        record_drain(1.25)
        stats = overload_stats()
        assert stats["queue_depth_high_water"] == 7
        assert stats["sheds"] == {"queue_full": 2, "worker_busy": 1}
        assert stats["deadline_expirations"] == 1
        assert stats["drain_seconds"] == [1.25]
        formatted = cache_report(None).format()
        assert "overload" in formatted
        assert "high-water 7" in formatted

    def test_reset_clears_everything(self):
        SHEDS.inc(reason="queue_full")
        record_drain(0.5)
        obs_metrics.REGISTRY.reset()
        assert overload_stats() == {}
        record_drain(0.25)  # the recent-drains list restarts too
        assert overload_stats()["drain_seconds"] == [0.25]


def _query_payload(**overrides):
    payload = {
        "database": {"R": [["a", "b"], ["a", "c"]]},
        "constraints": "R(x, y), R(x, z) -> y = z",
        "query": "Q(x) :- R(x, y)",
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 20,
        "seed": 7,
    }
    payload.update(overrides)
    return payload


class TestQueryServiceHandling:
    """Drive handle_query directly — no HTTP server needed."""

    def test_successful_query(self):
        service = QueryService()
        status, body = service.handle_query(_query_payload())
        assert status == 200
        assert body["ok"]
        assert body["runs"] == 20
        assert not body["deadline_expired"]
        # Operational repairs may delete either or both conflicting
        # facts, so x = a answers with some frequency in (0, 1].
        assert len(body["frequencies"]) == 1
        (candidate, frequency), = body["frequencies"]
        assert candidate == ["a"]
        assert 0 < frequency <= 1.0
        assert service.queries_served == 1

    def test_same_seed_is_deterministic(self):
        service = QueryService()
        _, first = service.handle_query(_query_payload(runs=40))
        _, second = service.handle_query(_query_payload(runs=40))
        assert first["frequencies"] == second["frequencies"]

    @pytest.mark.parametrize(
        "text",
        [
            "Q(x) :- R(x, y) & S(y)",
            "Q(x, y) :- R(x, y) & S(y)",
            "Q(x, u) :- R(x, y) & R(u, y)",
            "Q() :- R('k1', y) & R('k3', w)",
        ],
    )
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_join_bodies_equal_their_object_path_twins(
        self, monkeypatch, text, adaptive
    ):
        """A served join answers from its witnesses (``path="columnar"``)
        with the body the reference walk and per-draw SQL give."""
        import repro.sql.sampler  # noqa: F401 - registers the route counter

        ranges = obs_metrics.REGISTRY.get("ocqa_draw_ranges_total")
        payload = _query_payload(
            database={
                "R": [["k1", "v1"], ["k1", "v2"], ["k2", "v1"], ["k3", "v3"],
                      ["k3", "v2"], ["k4", "v4"]],
                "S": [["v1"], ["v3"]],
            },
            query=text,
            epsilon=0.2,
            delta=0.1,
            adaptive=adaptive,
            cache="bypass",
        )
        del payload["runs"]
        bodies = {}
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_COLUMNAR", flag)
            before = ranges.value(path="columnar")
            status, body = QueryService().handle_query(payload)
            assert status == 200
            assert (ranges.value(path="columnar") > before) == (flag == "1")
            body.pop("elapsed_seconds")
            bodies[flag] = body
        assert bodies["1"] == bodies["0"]

    def test_missing_field_is_400(self):
        service = QueryService()
        payload = _query_payload()
        del payload["query"]
        status, body = service.handle_query(payload)
        assert status == 400
        assert "query" in body["error"]
        assert not body["retriable"]

    def test_bad_epsilon_is_400(self):
        service = QueryService()
        status, body = service.handle_query(_query_payload(epsilon=1.5))
        assert status == 400
        assert "epsilon" in body["error"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon", None),
            ("deadline", None),
            ("runs", [1]),
            ("runs", float("inf")),
            ("seed", {}),
            ("constraints", [1, 2]),
            ("database", {"R": 5}),
            ("database", {"R": [[None, "a"], [None, "b"]]}),
            ("database", {"R": [[["a"], "b"]]}),
            ("database", {"R": [[{"a": 1}, "b"]]}),
            ("database", {"R": [[float("nan"), "b"]]}),
            ("database", {"R": [[1 << 63, "b"]]}),
            ("database", '{"R": [[null, "a"]]}'),
        ],
    )
    def test_wrong_field_type_is_400_and_counted_invalid(self, field, value):
        service = QueryService()
        status, body = service.handle_query(_query_payload(**{field: value}))
        assert status == 400, body
        assert field in body["error"] and not body["retriable"]
        queries = obs_metrics.REGISTRY.get("ocqa_queries_total")
        assert queries.value(tenant="default", status="invalid") == 1
        assert queries.value(tenant="default", status="error") == 0

    def test_admission_shed_is_429_with_typed_body(self):
        service = QueryService(
            admission=AdmissionController(
                max_concurrent=1, max_queue_depth=0, max_wait=0.05
            )
        )
        ticket = service.admission.admit()
        try:
            status, body = service.handle_query(_query_payload())
        finally:
            ticket.release()
        assert status == 429
        assert body["retriable"]
        assert body["reason"] == "queue_full"
        assert body["retry_after"] > 0
        assert not body["draining"]

    def test_draw_budget_shed_is_429(self):
        service = QueryService(
            quotas={
                "metered": TenantQuota(
                    max_concurrent=4, draws_per_second=0.001, burst=1.0
                )
            }
        )
        status, body = service.handle_query(
            _query_payload(tenant="metered", runs=50)
        )
        assert status == 429
        assert body["reason"] == "draw_budget"
        assert body["retriable"]

    def test_draining_refuses_with_503(self):
        service = QueryService()
        service.request_drain()
        status, body = service.handle_query(_query_payload())
        assert status == 503
        assert body["draining"]
        assert body["retriable"]

    def test_expired_deadline_returns_best_effort(self):
        service = QueryService()
        status, body = service.handle_query(
            _query_payload(runs=5000, deadline=1e-6)
        )
        assert status == 200
        assert body["deadline_expired"]
        # Whatever completed certifies only the widened accuracy.
        assert body["achieved_epsilon"] is not None
        assert 0 < body["achieved_epsilon"] <= 1.0
        if not body["frequencies"]:  # nothing completed: vacuous bound
            assert body["achieved_epsilon"] == 1.0

    def test_deadline_capped_at_max(self):
        service = QueryService(default_deadline=1.0, max_deadline=2.0)
        from repro.service.server import _QueryRequest

        request = _QueryRequest.parse(
            _query_payload(deadline=600.0), service
        )
        assert request.deadline_seconds == 2.0
        request = _QueryRequest.parse(_query_payload(), service)
        assert request.deadline_seconds == 1.0

    def test_status_shape(self):
        service = QueryService(name="unit")
        service.handle_query(_query_payload())
        status = service.status()
        assert status["name"] == "unit"
        assert status["queries_served"] == 1
        assert not status["draining"]
        assert "admission" in status and "overload" in status
        assert status["workers"] == [] and status["fleet"] == []

    def test_validates_deadline_configuration(self):
        with pytest.raises(ValueError):
            QueryService(default_deadline=0)
        with pytest.raises(ValueError):
            QueryService(default_deadline=10.0, max_deadline=5.0)
        with pytest.raises(ValueError):
            QueryService(drain_timeout=0)
        nan = float("nan")
        for durations in (
            {"default_deadline": nan},
            {"max_deadline": nan},
            {"drain_timeout": float("inf")},
            {"lease_timeout": nan},
        ):
            with pytest.raises(ValueError, match="finite"):
                QueryService(**durations)


class TestQueryServiceHTTP:
    """One end-to-end pass over the real HTTP surface."""

    def _post(self, address, payload, timeout=30.0, path="/query"):
        host, port = address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_query_status_and_drain_over_http(self):
        service = QueryService(name="http-unit", drain_timeout=5.0)
        with service:
            address = service.address
            status, body = self._post(address, _query_payload())
            assert status == 200 and body["ok"]

            with urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}/status", timeout=10
            ) as response:
                status_body = json.loads(response.read())
            assert status_body["queries_served"] == 1

            with urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}/healthz", timeout=10
            ) as response:
                assert response.status == 200

            service.request_drain()
            status, body = self._post(address, _query_payload())
            assert status == 503
            assert body["draining"] and body["retriable"]

            duration = service.drain()
            assert duration >= 0
        stats = overload_stats()
        assert len(stats["drain_seconds"]) == 1

    def test_nan_deadline_is_400(self):
        # json.loads accepts NaN; min(nan, max_deadline) is nan, and a
        # NaN deadline never expires — so it must be refused, not run.
        with QueryService(default_deadline=1.0, max_deadline=5.0) as service:
            for deadline in (float("nan"), float("inf")):
                status, body = self._post(
                    service.address, _query_payload(deadline=deadline)
                )
                assert status == 400, body
                assert "deadline" in body["error"] and not body["retriable"]
        assert service.queries_served == 0

    def test_wrong_field_types_are_400_over_http(self):
        with QueryService() as service:
            status, body = self._post(service.address, _query_payload(epsilon=None))
            assert status == 400 and "epsilon" in body["error"]
            status, _ = self._post(service.address, _query_payload(instance="inv"))
            assert status == 200
            status, body = self._post(
                service.address,
                {"instance": "inv", "add": {"R": [[["a"], "b"]]}},
                path="/update",
            )
            assert status == 400 and "add.R" in body["error"]
        invalid = {
            name: obs_metrics.REGISTRY.get(name).value(**labels)
            for name, labels in (
                ("ocqa_queries_total", {"tenant": "default", "status": "invalid"}),
                ("ocqa_updates_total", {"status": "invalid"}),
            )
        }
        assert invalid == {"ocqa_queries_total": 1, "ocqa_updates_total": 1}

    def test_bad_json_is_400(self):
        with QueryService() as service:
            host, port = service.address
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=b"{not json",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_kept_alive_connection_has_nagle_off(self, monkeypatch):
        """Headers and body go out in two writes; with Nagle on, the
        client's delayed ACK stalls every kept-alive response."""
        import http.client
        import socket

        from repro.service.server import _ServiceHandler

        nodelay = []
        original_setup = _ServiceHandler.setup

        def recording_setup(handler):
            original_setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_ServiceHandler, "setup", recording_setup)
        with QueryService() as service:
            connection = http.client.HTTPConnection(*service.address, timeout=10)
            try:
                for _ in range(2):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                connection.close()
        # Both requests rode one accepted socket.
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_unknown_path_is_404(self):
        with QueryService() as service:
            host, port = service.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=10
                )
            assert excinfo.value.code == 404


class TestServiceErrors:
    def test_typed_errors_carry_retry_metadata(self):
        for exc in (
            Overloaded("queue is full", reason="queue_full", retry_after=2.0),
            BudgetExhausted("budget", reason="draw_budget", retry_after=0.5),
            ServiceUnavailable("draining"),
        ):
            assert isinstance(exc, RetriableServiceError)
            assert exc.retriable
            assert exc.retry_after > 0
            assert exc.reason
