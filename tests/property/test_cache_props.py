"""Result-cache soundness properties, over seeded randomized schedules.

Two invariants back the cache's correctness claim:

1. **Byte-identity** — a cache hit for the exact requested key/level is
   byte-identical to recomputing the query from scratch, on every
   backend (SQLite, PostgreSQL when reachable).  This holds because the
   key folds in everything that decides the drawn bytes (instance
   digest, constraints, query, seed, run count); seeded draws do not
   depend on the backend.

2. **No stale answers** — after any ``apply_update`` schedule, a
   ``cache: "use"`` response always equals a ``cache: "bypass"``
   recompute on the *current* instance.  Invalidation may be
   conservative (extra misses are fine); it may never be unsound
   (a hit reflecting pre-update contents).
"""

import random

import pytest

from repro.constraints import ConstraintSet
from repro.constraints.parser import parse_constraints
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries.parser import parse_query
from repro.service.cache import ResultCache, request_cache_key
from repro.service.server import QueryService
from repro.sql import ConstraintRepairSampler, create_backend
from repro.sql.digest import database_digest

try:
    from repro.sql.postgres import postgres_available

    HAVE_POSTGRES = postgres_available()
except Exception:  # pragma: no cover - driver import failure
    HAVE_POSTGRES = False

BACKENDS = ["sqlite"] + (["postgres"] if HAVE_POSTGRES else [])

CONSTRAINTS_TEXT = "R(x, y), R(x, z) -> y = z"


def _database():
    return Database(
        frozenset(
            {
                Fact("R", ("a", "b")),
                Fact("R", ("a", "c")),
                Fact("R", ("d", "e")),
                Fact("S", ("a",)),
                Fact("S", ("d",)),
            }
        )
    )


def _run_once(backend_name, database, constraints, query, seed, runs):
    schema = Schema.infer(database).extend(constraints.schema())
    with create_backend(backend_name) as backend:
        backend.load(database, schema)
        sampler = ConstraintRepairSampler(
            backend, schema, constraints, rng=random.Random(seed)
        )
        report = sampler.run(query, runs=runs)
    # JSON values only, as the service builds its bodies: the cache
    # stores each body as JSON text.
    return {
        "frequencies": sorted(
            [[str(t) for t in candidate], frequency]
            for candidate, frequency in report.items()
        ),
        "runs": report.runs,
    }


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_cached_body_is_byte_identical_to_recompute(backend_name):
    """Store one run's body, then recompute from scratch: the cache hit
    and the recompute must agree byte for byte on every backend."""
    database = _database()
    constraints = ConstraintSet(parse_constraints(CONSTRAINTS_TEXT))
    query = parse_query("Q(x) :- R(x, y)")
    cache = ResultCache(8, name=f"prop-{backend_name}")
    key = request_cache_key(database, constraints, query, seed=11, runs=60)
    first = _run_once(backend_name, database, constraints, query, 11, 60)
    cache.put(key, 0.1, 0.1, draws=60, relations=frozenset({"R"}), body=first)
    hit = cache.get(key, 0.1, 0.1)
    assert hit is not None and hit.exact
    recompute = _run_once(backend_name, database, constraints, query, 11, 60)
    assert hit.body == recompute


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_sampler_rolled_digest_matches_recomputed(backend_name):
    """The digest ``/update`` rolls through each delta equals the digest
    of the post-delta instance recomputed from scratch, and of that
    instance as the backend round-trips it."""
    database = _database()
    constraints = ConstraintSet(parse_constraints(CONSTRAINTS_TEXT))
    schema = Schema.infer(database).extend(constraints.schema())
    service = QueryService(name=f"prop-digest-{backend_name}")
    status, _ = service.handle_query(
        {
            "instance": "roll",
            "database": {
                relation: [list(row) for row in database.tuples(relation)]
                for relation in ("R", "S")
            },
            "constraints": CONSTRAINTS_TEXT,
            "query": "Q(x) :- R(x, y)",
            "runs": 5,
            "seed": 0,
        }
    )
    assert status == 200
    assert service.get_instance("roll").digest == database_digest(database)
    rng = random.Random(3)
    live = set(database.facts)
    for step in range(8):
        if live and rng.random() < 0.5:
            (victim,) = rng.sample(sorted(live, key=str), 1)
            update = {"remove": {victim.relation: [list(victim.values)]}}
            live.discard(victim)
        else:
            fact = Fact("R", (f"k{rng.randint(0, 4)}", f"v{rng.randint(0, 4)}"))
            update = {"add": {"R": [list(fact.values)]}}
            live.add(fact)
        status, body = service.handle_update(dict(update, instance="roll"))
        assert status == 200, (step, body)
        expected = database_digest(Database(frozenset(live)))
        assert body["digest"] == expected, step
        with create_backend(backend_name) as backend:
            backend.load(Database(frozenset(live)), schema)
            assert database_digest(backend.fetch_database()) == expected, step


@pytest.mark.parametrize("schedule_seed", [1, 2, 3])
def test_update_schedule_never_serves_stale_answers(schedule_seed):
    """Drive the service through a seeded update schedule; after every
    delta, the cached path must answer exactly like a bypass recompute
    for every query — staleness would break the equality."""
    rng = random.Random(schedule_seed)
    service = QueryService(name=f"prop-sched-{schedule_seed}")
    database = {
        "R": [["a", "b"], ["a", "c"], ["d", "e"]],
        "S": [["a"], ["d"]],
    }
    queries = ["Q(x) :- R(x, y)", "Q(x) :- S(x)"]
    base = {
        "instance": "inv",
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 15,
        "seed": 5,
    }
    status, _ = service.handle_query(
        dict(
            base,
            database=database,
            constraints=CONSTRAINTS_TEXT,
            query=queries[0],
        )
    )
    assert status == 200
    volatile = ("elapsed_seconds", "cached", "cache_age_seconds")

    def core(body):
        return {k: v for k, v in body.items() if k not in volatile}

    live = {
        ("R", "a", "b"), ("R", "a", "c"), ("R", "d", "e"),
        ("S", "a"), ("S", "d"),
    }
    for step in range(6):
        # One random delta: add or remove a fact in R or S.  Never
        # empty a relation: the service infers the schema from the
        # instance contents, so a query on a vanished relation is a
        # (pre-existing) error unrelated to the cache.
        removable = [
            fact
            for fact in sorted(live)
            if sum(1 for other in live if other[0] == fact[0]) > 1
        ]
        if removable and rng.random() < 0.4:
            victim = rng.choice(removable)
            update = {"remove": {victim[0]: [list(victim[1:])]}}
            live.discard(victim)
        else:
            relation = rng.choice(["R", "S"])
            row = (
                [f"n{rng.randint(0, 3)}", f"m{rng.randint(0, 3)}"]
                if relation == "R"
                else [f"n{rng.randint(0, 3)}"]
            )
            candidate = (relation, *row)
            if candidate in live:
                continue
            update = {"add": {relation: [row]}}
            live.add(candidate)
        status, body = service.handle_update(dict(update, instance="inv"))
        assert status == 200, (step, body)
        for query in queries:
            _, used = service.handle_query(dict(base, query=query))
            _, fresh = service.handle_query(
                dict(base, query=query, cache="bypass")
            )
            assert core(used) == core(fresh), (step, query, used, fresh)
    stats = service.result_cache.stats()
    # The schedule exercised the cache: queries repeated, deltas landed.
    assert stats["updates"] >= 1
    assert stats["hits"] + stats["misses"] > 0
