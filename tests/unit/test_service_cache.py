"""Unit tests for the query service's result-cache wiring: cache modes
on ``/query``, hit metadata, named instances, the ``/update`` delta
path (invalidation vs migration), and the status surface — all driven
without sockets via :meth:`QueryService.handle_query` /
:meth:`QueryService.handle_update`."""

import pytest

from repro.service import AdmissionController, TenantQuota
from repro.service.server import MAX_INSTANCES, QueryService


def _payload(**overrides):
    payload = {
        "database": {
            "R": [["a", "b"], ["a", "c"], ["d", "e"]],
            "S": [["a"], ["d"]],
        },
        "constraints": "R(x, y), R(x, z) -> y = z",
        "query": "Q(x) :- R(x, y)",
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 20,
        "seed": 7,
    }
    payload.update(overrides)
    return payload


def _core(body):
    """Strip the volatile fields a cached replay legitimately changes."""
    volatile = (
        "elapsed_seconds",
        "cached",
        "cache_age_seconds",
        "cache_epsilon",
        "cache_delta",
    )
    return {k: v for k, v in body.items() if k not in volatile}


class TestCacheModes:
    def test_repeat_query_hits_byte_identically(self):
        service = QueryService()
        status, first = service.handle_query(_payload())
        assert status == 200 and first["cached"] is False
        status, second = service.handle_query(_payload())
        assert status == 200 and second["cached"] is True
        assert second["cache_age_seconds"] >= 0
        assert _core(second) == _core(first)
        stats = service.result_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert service.queries_served == 2

    def test_bypass_recomputes_and_does_not_touch_the_cache(self):
        service = QueryService()
        service.handle_query(_payload())
        status, body = service.handle_query(_payload(cache="bypass"))
        assert status == 200 and "cached" in body and body["cached"] is False
        stats = service.result_cache.stats()
        # bypass neither hits nor misses: one miss from the priming call.
        assert stats["hits"] == 0 and stats["misses"] == 1

    def test_refresh_replaces_the_entry(self):
        service = QueryService()
        service.handle_query(_payload())
        status, body = service.handle_query(_payload(cache="refresh"))
        assert status == 200 and body["cached"] is False
        stats = service.result_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["evictions"] == 1  # the replace
        # The refreshed entry still serves.
        _, third = service.handle_query(_payload())
        assert third["cached"] is True

    def test_bad_cache_mode_is_400(self):
        service = QueryService()
        status, body = service.handle_query(_payload(cache="sometimes"))
        assert status == 400 and "cache" in body["error"]

    def test_weaker_level_hit_reports_the_stored_level(self):
        service = QueryService()
        # Prime without an explicit run count so the level matters.
        strong = _payload(epsilon=0.4, delta=0.2)
        del strong["runs"]
        service.handle_query(strong)
        weak = _payload(epsilon=0.45, delta=0.45)
        del weak["runs"]
        status, body = service.handle_query(weak)
        assert status == 200 and body["cached"] is True
        assert body["epsilon"] == 0.45 and body["delta"] == 0.45
        assert body["cache_epsilon"] == 0.4 and body["cache_delta"] == 0.2

    def test_different_seed_misses(self):
        service = QueryService()
        service.handle_query(_payload(seed=7))
        _, body = service.handle_query(_payload(seed=8))
        assert body["cached"] is False

    def test_cache_disabled_by_size_zero(self):
        service = QueryService(cache_size=0)
        assert service.result_cache is None
        _, first = service.handle_query(_payload())
        _, second = service.handle_query(_payload())
        assert first["cached"] is False and second["cached"] is False
        assert service.status()["result_cache"] is None

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            QueryService(cache_size=-1)

    def test_deadline_expired_results_are_not_cached(self):
        service = QueryService()
        status, body = service.handle_query(
            _payload(runs=5000, deadline=1e-6)
        )
        assert status == 200 and body["deadline_expired"]
        stats = service.result_cache.stats()
        assert stats["misses"] == 1 and stats["size"] == 0

    def test_hit_bypasses_admission(self):
        service = QueryService(
            quotas={
                "metered": TenantQuota(
                    max_concurrent=4, draws_per_second=0.001, burst=1.0
                )
            }
        )
        # Prime with an unmetered tenant; the key ignores the tenant.
        service.handle_query(_payload(tenant="default"))
        status, body = service.handle_query(_payload(tenant="metered"))
        assert status == 200 and body["cached"] is True
        assert body["tenant"] == "metered"
        # The same request recomputed would have been shed.
        status, body = service.handle_query(
            _payload(tenant="metered", cache="bypass")
        )
        assert status == 429

    def test_hit_while_admission_full(self):
        service = QueryService(
            admission=AdmissionController(
                max_concurrent=1, max_queue_depth=0, max_wait=0.05
            )
        )
        service.handle_query(_payload())
        ticket = service.admission.admit()
        try:
            status, body = service.handle_query(_payload())
        finally:
            ticket.release()
        assert status == 200 and body["cached"] is True


class TestStructuralIdentity:
    """Cache keys hash structure: ``str`` prints ``1`` like ``'1'`` and
    ``'v1'`` like the variable ``v1``, so it cannot be an identity."""

    @staticmethod
    def _second_matches_bypass(service, first, second):
        service.handle_query(first)
        status, served = service.handle_query(second)
        assert status == 200 and served["cached"] is False
        _, bypass = service.handle_query(dict(second, cache="bypass"))
        assert _core(served) == _core(bypass)
        return served

    def test_integer_and_string_constants_are_different_queries(self):
        database = {"R": [["a", 1], ["b", "1"], ["c", "d"]]}
        served = self._second_matches_bypass(
            QueryService(),
            _payload(database=database, query="Q(x) :- R(x, 1)"),
            _payload(database=database, query="Q(x) :- R(x, '1')"),
        )
        assert served["frequencies"] == [[["b"], 1.0]]

    def test_print_alike_instances_do_not_share_answers(self):
        query = "Q(x, y) :- R(x, y)"
        served = self._second_matches_bypass(
            QueryService(),
            _payload(database={"R": [[1, "a"], ["1", "b"]]}, query=query),
            _payload(database={"R": [[1, "a"], [1, "b"]]}, query=query),
        )
        assert all(frequency < 1.0 for _, frequency in served["frequencies"])

    def test_a_quoted_constant_is_not_a_variable(self):
        database = {"R": [["a", "v1"], ["b", "c"]]}
        served = self._second_matches_bypass(
            QueryService(),
            _payload(database=database, query="Q(x) :- R(x, 'v1')"),
            _payload(database=database, query="Q(x) :- R(x, v1)"),
        )
        assert sorted(answer for answer, _ in served["frequencies"]) == [
            ["a"],
            ["b"],
        ]

    def test_constraint_constants_are_not_variables(self):
        service = QueryService()
        service.handle_query(_payload(instance="inst"))
        query = {
            "instance": "inst",
            "query": "Q(x, y) :- R(x, y)",
            "runs": 20,
            "seed": 7,
        }
        served = self._second_matches_bypass(
            service,
            dict(query, constraints="R(x, 'b') -> false"),
            dict(query, constraints="R(x, b) -> false"),
        )
        assert served["frequencies"] == []


class TestInstancesAndUpdates:
    def test_query_registers_and_reuses_an_instance(self):
        service = QueryService()
        status, first = service.handle_query(_payload(instance="inv"))
        assert status == 200
        assert service.status()["instances"] == ["inv"]
        # Later queries may omit the database entirely.
        follow_up = {
            "instance": "inv",
            "query": "Q(x) :- S(x)",
            "runs": 10,
            "seed": 3,
        }
        status, body = service.handle_query(follow_up)
        assert status == 200 and body["ok"]

    def test_unknown_instance_is_400(self):
        service = QueryService()
        status, body = service.handle_query(
            {"instance": "ghost", "query": "Q(x) :- R(x, y)"}
        )
        assert status == 400 and "ghost" in body["error"]

    def test_instance_limit_enforced(self):
        from repro.constraints.base import ConstraintSet
        from repro.db.facts import Database

        service = QueryService()
        empty = Database(frozenset())
        for i in range(MAX_INSTANCES):
            service.register_instance(f"i{i}", empty, ConstraintSet([]))
        with pytest.raises(ValueError, match="instance limit"):
            service.register_instance("overflow", empty, ConstraintSet([]))
        # Replacing an existing instance is still allowed.
        service.register_instance("i0", empty, ConstraintSet([]))

    def test_update_requires_an_instance(self):
        service = QueryService()
        status, body = service.handle_update({"add": {"R": [["x", "y"]]}})
        assert status == 400 and "instance" in body["error"]

    def test_update_validates_schema_and_shape(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["only-one-column"]]}}
        )
        assert status == 400 and "schema" in body["error"]
        status, body = service.handle_update({"instance": "inv"})
        assert status == 400
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": "not-a-list"}}
        )
        assert status == 400

    def test_update_invalidates_touched_and_migrates_untouched(self):
        service = QueryService()
        # Register once with the full payload; all later queries go
        # through the stored instance so they key against its current
        # (post-update) contents rather than re-shipping a stale copy.
        service.handle_query(_payload(instance="inv"))
        base = {"instance": "inv", "epsilon": 0.3, "delta": 0.3,
                "runs": 20, "seed": 7}
        r_query = dict(base, query="Q(x) :- R(x, y)")
        s_query = dict(base, query="Q(x) :- S(x)")
        service.handle_query(s_query)
        assert service.result_cache.stats()["size"] == 2

        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["d", "f"]]}}
        )
        assert status == 200 and body["ok"]
        assert body["added"] == 1 and body["removed"] == 0
        assert "R" in body["touched_relations"]
        assert body["cache"]["invalidated"] == 1  # the R query
        assert body["cache"]["migrated"] == 1  # the S query

        # The S answer survives the delta and still hits...
        _, s_after = service.handle_query(s_query)
        assert s_after["cached"] is True
        # ...while the R answer recomputes against the updated instance.
        _, r_after = service.handle_query(r_query)
        assert r_after["cached"] is False
        answers = dict(
            (tuple(candidate), freq) for candidate, freq in r_after["frequencies"]
        )
        assert ("d",) in answers

    def test_update_invalidates_a_domain_dependent_answer(self):
        """``y`` in ``Q(x, y) :- R(x, z)`` ranges over the domain, which a
        delta on ``S`` extends: the entry must recompute, not migrate."""
        service = QueryService()
        query = {
            "instance": "dom",
            "query": "Q(x, y) :- R(x, z)",
            "epsilon": 0.3,
            "delta": 0.3,
            "runs": 20,
            "seed": 3,
        }
        status, _ = service.handle_query(
            dict(
                query,
                database={"R": [["a", "b"], ["a", "c"]], "S": [["s"]]},
                constraints="R(x, y), R(x, z) -> y = z",
                cache="refresh",
            )
        )
        assert status == 200
        status, body = service.handle_update(
            {"instance": "dom", "add": {"S": [["t"]]}}
        )
        assert status == 200
        assert body["cache"] == {"invalidated": 1, "migrated": 0, "flushed": 0}
        _, used = service.handle_query(query)
        _, fresh = service.handle_query(dict(query, cache="bypass"))
        assert used["cached"] is False
        assert _core(used) == _core(fresh)
        assert ["a", "t"] in [candidate for candidate, _ in used["frequencies"]]

    def test_update_changes_the_instance_digest(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        before = service.get_instance("inv").digest
        _, body = service.handle_update(
            {"instance": "inv", "remove": {"S": [["d"]]}}
        )
        assert body["ok"] and body["removed"] == 1
        after = service.get_instance("inv").digest
        assert after != before and body["digest"] == after

    def test_noop_update_is_rejected(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        status, body = service.handle_update(
            {"instance": "inv", "add": {}, "remove": {}}
        )
        assert status == 400

    def test_duplicate_adds_are_normalized_away(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        before = service.get_instance("inv").digest
        # "a b" already exists: the effective delta is empty, the digest
        # must not move, and cached entries survive untouched.
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["a", "b"]]}}
        )
        assert status == 200 and body["added"] == 0
        assert service.get_instance("inv").digest == before
        assert body["cache"] == {"invalidated": 0, "migrated": 0, "flushed": 0}
        _, hit = service.handle_query(_payload(instance="inv"))
        assert hit["cached"] is True

    def test_rolled_digest_tracks_the_stored_facts(self):
        """``R(1.0, 'a')`` removes the stored ``R(1, 'a')``, and a fact
        listed twice is added once: either way the rolled digest stays
        the digest of the instance's own facts."""
        from repro.sql.digest import database_digest

        service = QueryService()
        database = {"R": [[1, "a"], [1, "b"], [2, "c"]]}
        service.handle_query(_payload(instance="inv", database=database))
        for delta in (
            {"remove": {"R": [[1.0, "a"]]}},
            {"add": {"R": [[3, "d"], [3, "d"]]}},
        ):
            status, body = service.handle_update(dict(delta, instance="inv"))
            assert status == 200 and body["removed"] + body["added"] == 1
            instance = service.get_instance("inv")
            assert instance.digest == database_digest(instance.database()), delta

    @pytest.mark.parametrize("cell", [None, ["z"], {"z": 1}, float("inf")])
    @pytest.mark.parametrize("field", ["add", "remove"])
    def test_update_refuses_a_bad_cell(self, field, cell):
        from repro.obs import metrics as obs_metrics

        obs_metrics.REGISTRY.reset()
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        status, body = service.handle_update(
            {"instance": "inv", field: {"R": [[cell, "a"]]}}
        )
        assert status == 400 and f"{field}.R" in body["error"], body
        updates = obs_metrics.REGISTRY.get("ocqa_updates_total")
        assert updates.value(status="invalid") == 1

    def test_update_while_draining_is_503(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        service.request_drain()
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["z", "z"]]}}
        )
        assert status == 503 and body["draining"]


class TestInstanceSnapshots:
    """A registered instance keeps its schema, parsed constraints and
    cache-key parts; only a request that sends its own constraints keys
    through ``request_cache_key``."""

    @staticmethod
    def _counting(monkeypatch):
        from repro.service import server

        calls = []
        real = server.request_cache_key

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(server, "request_cache_key", counted)
        return calls, real

    def test_snapshot_keys_equal_request_cache_key_across_hot_schedule(
        self, monkeypatch
    ):
        import itertools

        from perfbench import inputs
        from repro.service.server import _QueryRequest

        service = QueryService()
        status, _ = service.handle_query(inputs.registration_payload(5))
        assert status == 200
        calls, real = self._counting(monkeypatch)
        standing = inputs.standing_queries(5)
        updates = 0
        for kind, item in itertools.islice(inputs.hot_schedule(5), 80):
            if kind == "update":
                status, _ = service.handle_update(item.payload())
                assert status == 200
                updates += 1
                continue
            payload = standing[item]
            request = _QueryRequest.parse(payload, service)
            assert request.cache_key() == real(
                request.stored.database(),
                request.constraints,
                request.query,
                seed=request.seed,
                runs=request.runs,
                adaptive=request.adaptive,
            )
            status, _ = service.handle_query(payload)
            assert status == 200
        assert updates >= 2
        assert len(calls) == 0

    def test_a_request_with_constraints_keys_through_request_cache_key(
        self, monkeypatch
    ):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        calls, _ = self._counting(monkeypatch)
        named = {"instance": "inv", "query": "Q(x) :- R(x, y)", "runs": 10}
        service.handle_query(named)
        assert len(calls) == 0
        service.handle_query(dict(named, constraints="R(x, y), R(x, z) -> y = z"))
        assert len(calls) == 1

    def test_a_relation_an_update_empties_keeps_its_table(self):
        """``S`` is in no constraint: once an update removes its last
        fact it still answers, and it still takes facts."""
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        queries = [
            {"instance": "inv", "query": text, "runs": 10, "seed": 1}
            for text in ("Q(x) :- S(x)", "Q(x) :- R(x, y) & S(x)")
        ]
        status, _ = service.handle_update(
            {"instance": "inv", "remove": {"S": [["a"], ["d"]]}}
        )
        assert status == 200
        for query in queries:
            status, body = service.handle_query(query)
            assert status == 200 and body["frequencies"] == []
        status, _ = service.handle_update({"instance": "inv", "add": {"S": [["d"]]}})
        assert status == 200
        for query in queries:
            status, body = service.handle_query(query)
            assert status == 200 and body["frequencies"] == [[["d"], 1.0]]


class TestStatusSurface:
    def test_status_includes_cache_section(self):
        service = QueryService(name="unit-cache")
        service.handle_query(_payload())
        service.handle_query(_payload())
        section = service.status()["result_cache"]
        assert section["name"] == "unit-cache"
        assert section["hits"] == 1 and section["misses"] == 1
        assert section["size"] == 1 and section["capacity"] == 256

    def test_diagnostics_cache_report_aggregates(self):
        from repro.diagnostics import cache_report

        service = QueryService(name="unit-diag")
        try:
            service.handle_query(_payload())
            service.handle_query(_payload())
            report = cache_report(None)
            assert report.result_cache.get("hits", 0) >= 1
            assert "result cache" in report.format()
        finally:
            service.close()
