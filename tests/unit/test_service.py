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
from repro.diagnostics import (
    aggregated_overload_stats,
    cache_report,
    record_deadline_expiration,
    record_drain,
    record_queue_depth,
    record_shed,
    reset_overload_stats,
)
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
    reset_overload_stats()
    yield
    reset_overload_stats()


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
        stats = aggregated_overload_stats()
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
        assert aggregated_overload_stats()["sheds"]["draw_budget"] == 1
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
        assert aggregated_overload_stats() == {}
        assert "overload" not in cache_report(None).format()

    def test_counters_aggregate_and_format(self):
        record_queue_depth(3)
        record_queue_depth(7)
        record_queue_depth(2)
        record_shed("queue_full")
        record_shed("queue_full")
        record_shed("worker_busy")
        record_deadline_expiration()
        record_drain(1.25)
        stats = aggregated_overload_stats()
        assert stats["queue_depth_high_water"] == 7
        assert stats["sheds"] == {"queue_full": 2, "worker_busy": 1}
        assert stats["deadline_expirations"] == 1
        assert stats["drain_seconds"] == [1.25]
        formatted = cache_report(None).format()
        assert "overload" in formatted
        assert "high-water 7" in formatted

    def test_reset_clears_everything(self):
        record_shed("queue_full")
        record_drain(0.5)
        reset_overload_stats()
        assert aggregated_overload_stats() == {}


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

    def test_validates_deadline_configuration(self):
        with pytest.raises(ValueError):
            QueryService(default_deadline=0)
        with pytest.raises(ValueError):
            QueryService(default_deadline=10.0, max_deadline=5.0)
        with pytest.raises(ValueError):
            QueryService(drain_timeout=0)

    def test_negative_workers_rejected_at_construction(self):
        # Not a 400 on every /query that blames the client for an
        # operator setting; 0 keeps meaning "no local pool".
        with pytest.raises(ValueError, match="workers must be >= 0"):
            QueryService(workers=-1)
        assert QueryService(workers=0).workers == 0


class TestQueryServiceHTTP:
    """One end-to-end pass over the real HTTP surface."""

    def _post(self, address, payload, timeout=30.0):
        host, port = address
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
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
        stats = aggregated_overload_stats()
        assert len(stats["drain_seconds"]) == 1

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
