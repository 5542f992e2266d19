"""Warm service instances.

A registered instance keeps one sampler: its SQLite copy, violation
index, components, walk tables and witness plans.  Every later
``/query`` runs a fresh campaign over it, and every ``/update`` moves
it by its delta.  What must hold:

- answers equal an inline-database ``bypass`` recompute of the state
  the campaign read, across updates that merge and split components,
  on both draw paths (``REPRO_COLUMNAR`` 1 and 0);
- after registration a query loads nothing, builds no sampler or index,
  and builds each witness plan once per (text, instance state);
- an update loads nothing and runs only delta joins;
- a body and its cache key come from one instance digest;
- a failed draw leaves no deletion marks behind;
- a sharded campaign does not hold the instance lock while it draws;
- the plan, parsed-query, table and shape caches stay bounded.
"""

import threading
import time

import pytest

from repro.core import columnar
from repro.distributed import worker as worker_module
from repro.distributed.worker import WorkerServer
from repro.service.server import QueryService, _QueryRequest
from repro.sql import sampler as sampler_module
from repro.sql import violations as violations_module
from repro.sql.backend import SQLBackend
from repro.sql.compiler import CompiledQuery
from repro.sql.sampler import ConstraintRepairSampler
from repro.sql.violations import SQLDeltaViolationIndex

CONSTRAINTS = "R(x, y), R(x, z) -> y = z"

#: Three conflicting keys (``a``, ``d``, ``k1``), clean rows, and ``S``.
DATABASE = {
    "R": [
        ["a", "b"], ["a", "c"], ["d", "e"], ["d", "f"], ["g", "h"],
        ["k1", "b"], ["k1", "e"], ["k1", "n"], ["m", "n"],
    ],
    "S": [["b"], ["e"], ["n"], ["z"]],
}

CQ_TEXTS = (
    "Q(x) :- R(x, y)",
    "Q(x, y) :- R(x, y) & S(y)",
    "Q() :- R(x, y) & S(y)",
)
FO_TEXTS = (
    "Q(x) :- R(x, y) & !S(y)",
    "Q(y) :- !R('k1', y)",
    "Q(x) :- forall y (R(x, y) -> S(y))",
)

#: Deltas on ``R``: merge ``g`` into a conflict, split ``k1`` to one
#: row, join two keys' values, and undo.
DELTAS = (
    {"add": {"R": [["g", "i"]]}},
    {"remove": {"R": [["k1", "b"], ["k1", "e"]]}},
    {"add": {"R": [["k1", "c"], ["m", "b"]]}, "remove": {"R": [["g", "i"]]}},
    {"add": {"R": [["k1", "b"]]}, "remove": {"R": [["m", "b"]]}},
)

VOLATILE = ("elapsed_seconds", "cached", "cache_age_seconds")


def _core(body):
    return {key: value for key, value in body.items() if key not in VOLATILE}


def _query(text, **overrides):
    payload = {
        "instance": "warm",
        "query": text,
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 24,
        "seed": 5,
    }
    payload.update(overrides)
    return payload


def _register(service, text=CQ_TEXTS[0], **overrides):
    fields = {"database": DATABASE, "constraints": CONSTRAINTS}
    fields.update(overrides)
    status, body = service.handle_query(_query(text, **fields))
    assert status == 200, body
    return body


def _as_json(database):
    rows = {}
    for fact in sorted(database.facts, key=repr):
        rows.setdefault(fact.relation, []).append(list(fact.values))
    return rows


def _inline(service, payload, database):
    """An inline-database ``bypass`` recompute of *payload* over *database*."""
    inline = dict(payload, cache="bypass", database=_as_json(database))
    inline["constraints"] = CONSTRAINTS
    del inline["instance"]
    status, body = service.handle_query(inline)
    assert status == 200, body
    return body


def _counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (and still run it)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWarmQueries:
    @pytest.mark.parametrize("columnar_setting", ["1", "0"])
    def test_answers_equal_inline_recomputes_across_updates(
        self, monkeypatch, columnar_setting
    ):
        """Conjunctive and first-order texts, fixed and adaptive, before
        and after updates that merge and split components."""
        monkeypatch.setenv("REPRO_COLUMNAR", columnar_setting)
        service = QueryService()
        _register(service)
        instance = service.get_instance("warm")
        for delta in (None,) + DELTAS:
            if delta is not None:
                status, body = service.handle_update(dict(delta, instance="warm"))
                assert status == 200, body
            database = instance.database()
            for text in CQ_TEXTS + FO_TEXTS:
                for adaptive in (False, True):
                    payload = _query(text, adaptive=adaptive, cache="bypass")
                    status, body = service.handle_query(payload)
                    assert status == 200, body
                    assert _core(body) == _core(
                        _inline(service, payload, database)
                    ), (delta, text, adaptive)

    def test_queries_after_registration_load_nothing(self, monkeypatch):
        service = QueryService()
        _register(service)
        loads = _counting(monkeypatch, SQLBackend, "load")
        inits = _counting(monkeypatch, ConstraintRepairSampler, "__init__")
        builds = _counting(monkeypatch, SQLDeltaViolationIndex, "__init__")
        plans = _counting(monkeypatch, sampler_module, "_build_columnar_plan")
        for seed in (1, 2, 3):
            for text in CQ_TEXTS + FO_TEXTS:
                status, body = service.handle_query(
                    _query(text, seed=seed, cache="bypass")
                )
                assert status == 200, body
        assert (len(loads), len(inits), len(builds)) == (0, 0, 0)
        # The registering text planned at registration; each other text
        # plans (or is gated) once per instance state.  The object path
        # (``REPRO_COLUMNAR=0``) plans nothing.
        per_state = len(CQ_TEXTS + FO_TEXTS) if columnar.enabled() else 0
        assert len(plans) == max(per_state - 1, 0)
        service.handle_update({"instance": "warm", "add": {"S": [["h"]]}})
        service.handle_query(_query(CQ_TEXTS[0], seed=9, cache="bypass"))
        assert len(plans) == per_state
        assert (len(loads), len(inits), len(builds)) == (0, 0, 0)

    def test_a_request_with_its_own_constraints_reads_the_instance(self):
        """Other constraints take a throwaway over the instance's facts."""
        service = QueryService()
        _register(service)
        service.handle_update({"instance": "warm", "add": {"R": [["g", "i"]]}})
        payload = _query("Q(x) :- R(x, y)", constraints="R(x, y), S(y) -> false")
        status, body = service.handle_query(payload)
        assert status == 200, body
        inline = dict(payload, database=_as_json(service.get_instance("warm").database()))
        del inline["instance"]
        status, expected = service.handle_query(dict(inline, cache="bypass"))
        assert _core(body) == _core(expected)


    def test_closing_the_service_closes_idle_warm_backends(self):
        import sqlite3

        service = QueryService()
        _register(service)
        instance = service.get_instance("warm")
        backend = instance.sampler.backend
        service.close()
        assert instance.sampler is None
        with pytest.raises(sqlite3.ProgrammingError):
            backend.select_all("R")


class TestWarmUpdates:
    def test_an_update_loads_nothing_and_runs_only_delta_joins(self, monkeypatch):
        """Fifteen conflicting keys; each update touches one of them."""
        database = {
            "R": [[f"k{i}", f"v{j}"] for i in range(15) for j in range(2)]
            + [[f"c{i}", "v0"] for i in range(30)],
        }
        service = QueryService()
        _register(service, database=database)
        index = service.get_instance("warm").sampler.violation_index
        edges = len(index.current())
        full = index.full_queries
        delta = index.delta_queries
        loads = _counting(monkeypatch, SQLBackend, "load")
        regrouped = []
        original = violations_module._ordered_components

        def counted(region):
            region = list(region)
            regrouped.append(len(region))
            return original(region)

        monkeypatch.setattr(violations_module, "_ordered_components", counted)
        full_joins = _counting(monkeypatch, violations_module, "components_from_edges")
        for update in (
            {"add": {"R": [["k3", "v9"]]}},
            {"remove": {"R": [["k3", "v9"], ["k4", "v0"]]}},
            {"add": {"R": [["c7", "v5"]]}},
        ):
            status, body = service.handle_update(dict(update, instance="warm"))
            assert status == 200 and body["touched_groups"] >= 1, body
        assert loads == [] and full_joins == []
        assert index.full_queries == full
        assert index.delta_queries > delta
        # Each regroup unions the touched components' edges only.
        assert regrouped and max(regrouped) <= 3 < edges
        assert index.components() == violations_module.components_from_edges(
            index.current()
        )

    def test_a_failed_delta_leaves_the_instance_as_it_was(self, monkeypatch):
        service = QueryService()
        _register(service)
        instance = service.get_instance("warm")
        before = (instance.digest, instance.database())

        def broken(self, *args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(SQLDeltaViolationIndex, "apply_insert", broken)
        status, _ = service.handle_update({"instance": "warm", "add": {"R": [["x", "y"]]}})
        assert status == 500
        monkeypatch.undo()
        assert (instance.digest, instance.database()) == before
        assert instance.sampler is None
        payload = _query("Q(x) :- R(x, y)", seed=3, cache="bypass")
        status, body = service.handle_query(payload)
        assert status == 200
        assert _core(body) == _core(_inline(service, payload, before[1]))


class TestStateRules:
    def test_an_update_between_parse_and_run_keys_the_state_read(self, monkeypatch):
        """The body and its cache key come from the digest the campaign
        read: here the post-update one, not the one parse saw."""
        service = QueryService()
        _register(service)
        instance = service.get_instance("warm")
        parse = _QueryRequest.parse

        def parse_then_update(payload, svc):
            request = parse(payload, svc)
            status, _ = svc.handle_update(
                {"instance": "warm", "add": {"R": [["g", "i"]]}}
            )
            assert status == 200
            return request

        payload = _query("Q(x) :- R(x, y)", seed=11)
        before = instance.digest
        monkeypatch.setattr(_QueryRequest, "parse", staticmethod(parse_then_update))
        status, body = service.handle_query(payload)
        monkeypatch.undo()
        assert status == 200 and body["cached"] is False
        after = instance.digest
        assert after != before
        stored = [
            entry.key.instance_digest
            for entry in service.result_cache._entries.values()
            if entry.key.seed == 11
        ]
        assert stored == [after]
        expected = _inline(service, payload, instance.database())
        assert _core(body) == _core(expected)
        status, hit = service.handle_query(payload)
        assert hit["cached"] is True and _core(hit) == _core(expected)

    def test_a_failed_draw_leaves_no_deletion_marks(self, monkeypatch):
        """A first-order draw that raises mid-campaign must not leave its
        marks in the warm backend's deletion tables: twelve key groups,
        so a later campaign's first draw would almost surely lose a
        fact to them."""
        database = {
            "R": [[f"k{i}", f"v{i}{j}"] for i in range(12) for j in range(2)],
            "S": [["s"]],
        }
        texts = ("Q(x, y) :- R(x, y)", "Q(x, y) :- R(x, y) & !S(y)")
        service = QueryService()
        _register(service, database=database)
        runs = []
        original = CompiledQuery.run

        def third_run_fails(self, backend):
            runs.append(1)
            if len(runs) == 3:
                raise RuntimeError("injected draw failure")
            return original(self, backend)

        monkeypatch.setattr(CompiledQuery, "run", third_run_fails)
        status, body = service.handle_query(_query(texts[1], cache="bypass"))
        assert status == 500, body
        monkeypatch.undo()
        instance = service.get_instance("warm")
        for text in texts:
            payload = _query(text, seed=6, cache="bypass")
            status, body = service.handle_query(payload)
            assert status == 200, body
            expected = _inline(service, payload, instance.database())
            assert _core(body) == _core(expected), text

    def test_caches_stay_bounded(self):
        service = QueryService(cache_size=4)
        _register(service)
        instance = service.get_instance("warm")
        texts = [f"Q(x) :- R(x, '{value}')" for value in "bcefhn"] + [
            "Q(x) :- S(x)", "Q(y) :- R(x, y)",
        ]
        assert len(texts) == 2 * service.cache_size
        for round_ in range(50):
            for text in texts:
                status, body = service.handle_query(_query(text, cache="bypass"))
                assert status == 200, body
            delta = {"R": [[f"k{round_ % 3}", f"u{round_}"], [f"k{round_ % 3}", "b"]]}
            service.handle_update({"instance": "warm", "add": delta})
            if round_:
                service.handle_update({"instance": "warm", "remove": {"R": previous}})
            previous = delta["R"]
            sampler = instance.sampler
            live = len(sampler.components)
            assert len(sampler._witness_plans) <= service.cache_size
            assert len(sampler._tables) <= live
            assert len(sampler._shapes) <= live
        assert len(service._parsed) <= service.cache_size

    def test_sharded_campaigns_release_the_instance_lock(self, monkeypatch):
        """Two queries on one instance through a slow worker draw at the
        same time, and each equals its serial answer."""
        spans = []
        lock = threading.Lock()
        original = worker_module._SamplerRuntime.tally

        def slow(self, start, count):
            began = time.monotonic()
            time.sleep(0.15)
            tally = original(self, start, count)
            with lock:
                spans.append((self.sampler.campaign.seed, began, time.monotonic()))
            return tally

        monkeypatch.setattr(worker_module._SamplerRuntime, "tally", slow)
        server = WorkerServer()
        server.start()
        try:
            service = QueryService(worker_addresses=[f"127.0.0.1:{server.port}"])
            _register(service)
            spans.clear()
            payloads = [_query(CQ_TEXTS[1], seed=seed, cache="bypass") for seed in (1, 2)]
            bodies = {}

            def ask(payload):
                bodies[payload["seed"]] = service.handle_query(payload)

            threads = [threading.Thread(target=ask, args=(p,)) for p in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            server.shutdown()
        campaigns = {}
        for seed, began, ended in spans:
            first, last = campaigns.get(seed, (began, ended))
            campaigns[seed] = (min(first, began), max(last, ended))
        assert len(campaigns) == 2, spans
        (a_start, a_end), (b_start, b_end) = campaigns.values()
        assert a_start < b_end and b_start < a_end, campaigns
        serial = QueryService()
        _register(serial)
        for payload in payloads:
            status, body = bodies[payload["seed"]]
            assert status == 200, body
            _, expected = serial.handle_query(payload)
            assert _core(body) == _core(expected)


class TestParsedQueries:
    def test_a_repeated_text_is_parsed_once(self, monkeypatch):
        from repro.queries import parser

        calls = _counting(monkeypatch, parser, "parse_query")
        service = QueryService()
        _register(service, text="Q(y) :- R(x, y)")
        for seed in (1, 2, 3):
            status, _ = service.handle_query(_query("Q(y) :- R(x, y)", seed=seed))
            assert status == 200
        assert len(calls) == 1

    def test_a_bad_text_is_a_400_every_time(self, monkeypatch):
        from repro.queries import parser

        calls = _counting(monkeypatch, parser, "parse_query")
        service = QueryService()
        _register(service)
        for _ in range(3):
            status, body = service.handle_query(_query("Q(x) :- R(x,"))
            assert status == 400 and not body["ok"], body
        assert len(calls) == 4
