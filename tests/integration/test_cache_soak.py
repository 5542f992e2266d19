"""Cache-consistency soak over the real HTTP surface.

A started :class:`QueryService` takes a stream of repeat queries,
mid-soak base-table deltas over ``/update``, and interleaved ``bypass``
recomputes.  The bar:

- every ``cache: "use"`` response is byte-identical (modulo volatile
  fields) to a ``bypass`` recompute at that moment — across updates;
- an update invalidates exactly the touched entries: the query whose
  footprint the delta hits recomputes, the untouched one keeps hitting;
- the service's cache counters reconcile against the request log the
  soak keeps;
- the ``/metrics`` exposition carries the ``ocqa_cache_*_total``
  series and ``/status`` the ``result_cache`` section.

Skips cleanly where localhost sockets are unavailable.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.server import QueryService

CONSTRAINTS = "R(x, y), R(x, z) -> y = z"
DATABASE = {
    "R": [["a", "b"], ["a", "c"], ["d", "e"], ["f", "g"]],
    "S": [["a"], ["d"], ["f"]],
}
R_QUERY = "Q(x) :- R(x, y)"
S_QUERY = "Q(x) :- S(x)"
VOLATILE = ("elapsed_seconds", "cached", "cache_age_seconds")


def _post(address, path, payload, timeout=60.0):
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


def _get(address, path, timeout=10.0):
    host, port = address
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=timeout
    ) as response:
        return response.read().decode("utf-8")


def _core(body):
    return {k: v for k, v in body.items() if k not in VOLATILE}


def _query(query, **overrides):
    payload = {
        "instance": "soak",
        "query": query,
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 20,
        "seed": 13,
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def service():
    service = QueryService(host="127.0.0.1", port=0, name="cache-soak")
    try:
        service.start()
    except OSError as exc:  # pragma: no cover - sandboxed environments
        pytest.skip(f"cannot bind localhost sockets: {exc}")
    try:
        yield service
    finally:
        service.close()


def test_cache_soak_consistency(service):
    address = service.address
    log = {"hits": 0, "misses": 0}

    def ask(query, mode="use"):
        payload = _query(query) if mode == "use" else _query(query, cache=mode)
        status, body = _post(address, "/query", payload)
        assert status == 200, body
        if mode == "use":
            log["hits" if body["cached"] else "misses"] += 1
        return body

    # Register the instance (this first query is a miss and fills it).
    status, first = _post(
        address,
        "/query",
        _query(R_QUERY, database=DATABASE, constraints=CONSTRAINTS),
    )
    assert status == 200 and first["cached"] is False
    log["misses"] += 1

    # Phase 1: repeats hit and match a bypass recompute byte for byte.
    for _ in range(3):
        body = ask(R_QUERY)
        assert body["cached"] is True
        assert _core(body) == _core(first)
    fresh = ask(R_QUERY, mode="bypass")
    assert _core(fresh) == _core(first)
    s_first = ask(S_QUERY)
    assert s_first["cached"] is False
    assert ask(S_QUERY)["cached"] is True

    # Phase 2: a delta through /update invalidates exactly the touched
    # entry.  The R footprint is hit; the S entry migrates and keeps
    # hitting.
    status, update = _post(
        address,
        "/update",
        {"instance": "soak", "add": {"R": [["h", "i"]]}},
    )
    assert status == 200 and update["ok"], update
    assert update["cache"]["invalidated"] >= 1
    assert update["cache"]["migrated"] >= 1

    s_after = ask(S_QUERY)
    assert s_after["cached"] is True, "untouched entry must keep hitting"
    assert _core(s_after) == _core(s_first)

    r_after = ask(R_QUERY)
    assert r_after["cached"] is False, "touched entry must recompute"
    answers = {tuple(candidate) for candidate, _ in r_after["frequencies"]}
    assert ("h",) in answers, "recompute must see the post-update instance"
    assert _core(r_after) == _core(ask(R_QUERY, mode="bypass"))
    assert ask(R_QUERY)["cached"] is True

    # Phase 3: a removal touching S invalidates the S entry.
    status, update = _post(
        address,
        "/update",
        {"instance": "soak", "remove": {"S": [["f"]]}},
    )
    assert status == 200 and update["ok"], update
    s_final = ask(S_QUERY)
    assert s_final["cached"] is False
    answers = {tuple(candidate) for candidate, _ in s_final["frequencies"]}
    assert ("f",) not in answers
    assert _core(s_final) == _core(ask(S_QUERY, mode="bypass"))

    # Reconciliation: the server's counters equal the request log.
    stats = json.loads(_get(address, "/status"))["result_cache"]
    assert stats["hits"] == log["hits"], (stats, log)
    assert stats["misses"] == log["misses"], (stats, log)
    assert stats["invalidations"] >= 2
    assert stats["migrations"] >= 1
    assert stats["updates"] == 2

    # The exposition carries the cache series for ocqa top / Prometheus.
    metrics = _get(address, "/metrics")
    assert "ocqa_cache_hits_total" in metrics
    assert "ocqa_cache_misses_total" in metrics
    assert "ocqa_cache_invalidations_total" in metrics


#: The warm-instance soak's instance, texts and delta cycle.  Every
#: delta adds or removes rows of ``R`` only, merging and splitting the
#: ``k``/``g``/``m`` components; ``S`` keeps its facts.
WARM_DATABASE = {
    "R": [
        ["a", "b"], ["a", "c"], ["d", "e"], ["d", "f"], ["g", "h"],
        ["k1", "b"], ["k1", "e"], ["k1", "n"], ["m", "n"],
    ],
    "S": [["b"], ["e"], ["n"], ["z"]],
}
WARM_TEXTS = (
    "Q(x) :- R(x, y)",
    "Q(x, y) :- R(x, y) & S(y)",
    "Q() :- R(x, y) & S(y)",
    "Q(x) :- R(x, y) & !S(y)",
    "Q(y) :- !R('k1', y)",
    "Q(x) :- forall y (R(x, y) -> S(y))",
)
WARM_DELTAS = (
    {"add": {"R": [["g", "i"]]}},
    {"remove": {"R": [["k1", "b"], ["k1", "e"]]}},
    {"add": {"R": [["k1", "c"], ["m", "b"]]}, "remove": {"R": [["g", "i"]]}},
    {"add": {"R": [["k1", "b"], ["k1", "e"]]}, "remove": {"R": [["m", "b"], ["k1", "c"]]}},
)


def test_warm_instance_soak(service, monkeypatch):
    """Threads mix ``/update`` deltas with conjunctive and first-order
    queries (fixed and adaptive, ``use`` and ``bypass``) on one
    instance.  Each answer equals an inline-database ``bypass``
    recompute at a digest the instance held while the request was in
    flight, and no request after registration loads a backend."""
    import random
    import sys
    import threading
    import time

    from repro.sql.backend import SQLBackend

    address = service.address
    status, first = _post(
        address,
        "/query",
        _query(
            WARM_TEXTS[0],
            instance="warm",
            database=WARM_DATABASE,
            constraints=CONSTRAINTS,
        ),
    )
    assert status == 200, first
    state = frozenset(
        (relation, tuple(row)) for relation, rows in WARM_DATABASE.items() for row in rows
    )
    #: Each digest the instance held: its facts, the time the update
    #: that made it was sent, and the time the next update returned.
    held = [[service.get_instance("warm").digest, state, 0.0, float("inf")]]
    loads = []
    original_load = SQLBackend.load

    def counted_load(self, *args, **kwargs):
        loads.append(threading.current_thread().name)
        return original_load(self, *args, **kwargs)

    monkeypatch.setattr(SQLBackend, "load", counted_load)
    answers = []
    failures = []
    lock = threading.Lock()

    def updater():
        nonlocal state
        for step in range(12):
            delta = WARM_DELTAS[step % len(WARM_DELTAS)]
            sent = time.monotonic()
            status, body = _post(address, "/update", dict(delta, instance="warm"))
            returned = time.monotonic()
            if status != 200:
                failures.append(("update", status, body))
                return
            removed = {("R", tuple(row)) for row in delta.get("remove", {}).get("R", [])}
            added = {("R", tuple(row)) for row in delta.get("add", {}).get("R", [])}
            state = (state - removed) | added
            with lock:
                held[-1][3] = returned
                held.append([body["digest"], state, sent, float("inf")])
            time.sleep(0.02)

    def asker(seed):
        rng = random.Random(seed)
        for _ in range(20):
            payload = _query(
                rng.choice(WARM_TEXTS),
                instance="warm",
                runs=rng.choice([12, None]),
                adaptive=rng.random() < 0.5,
                seed=rng.randrange(4),
            )
            if payload["runs"] is None:
                del payload["runs"]
            if rng.random() < 0.5:
                payload["cache"] = "bypass"
            started = time.monotonic()
            status, body = _post(address, "/query", payload)
            ended = time.monotonic()
            if status != 200:
                failures.append(("query", status, body))
                return
            with lock:
                answers.append((payload, started, ended, body))

    threads = [threading.Thread(target=updater, name="updater")] + [
        threading.Thread(target=asker, args=(seed,), name=f"asker-{seed}")
        for seed in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert loads == [], "a named-instance request loaded a backend"
    assert len(answers) == 60 and len(held) == 13

    recomputed = {}

    def recompute(payload, facts):
        key = (json.dumps(payload, sort_keys=True), facts)
        if key not in recomputed:
            database = {}
            for relation, row in sorted(facts):
                database.setdefault(relation, []).append(list(row))
            inline = dict(payload, cache="bypass", database=database)
            inline["constraints"] = CONSTRAINTS
            del inline["instance"]
            status, body = _post(address, "/query", inline)
            assert status == 200, body
            recomputed[key] = _core(body)
        return recomputed[key]

    for payload, started, ended, body in answers:
        plain = {k: v for k, v in payload.items() if k != "cache"}
        candidates = [
            facts
            for _, facts, since, until in held
            if since <= ended and until >= started
        ]
        assert candidates, payload
        assert any(
            _core(body) == recompute(plain, facts) for facts in candidates
        ), payload
