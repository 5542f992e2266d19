"""Unit tests for the service result cache and its supporting machinery:
order-independent instance digests, query dependency footprints,
``UpdateReport`` group diffing, and the :class:`ResultCache` itself
(LRU/TTL bounds, the weaker-``(eps, delta)`` hit rule, delta-driven
invalidation vs migration, counters, and thread safety)."""

import random
import threading

import pytest

from repro.analysis.bernstein import widened_epsilon
from repro.campaign import UpdateReport, group_key
from repro.db.facts import Database, Fact
from repro.queries import ConjunctiveQuery, Query, parse_cq, parse_query
from repro.queries.relations import dependency_relations, query_relations
from repro.service.cache import CacheKey, ResultCache, request_cache_key
from repro.sql.digest import InstanceDigest, database_digest


def _db(*facts):
    return Database(frozenset(Fact(rel, tuple(vals)) for rel, *vals in facts))


class TestInstanceDigest:
    def test_order_independent(self):
        facts = [Fact("R", ("a", "b")), Fact("R", ("c", "d")), Fact("S", ("e",))]
        forward = InstanceDigest()
        backward = InstanceDigest()
        for fact in facts:
            forward.add(fact)
        for fact in reversed(facts):
            backward.add(fact)
        assert forward.hexdigest() == backward.hexdigest()

    def test_rolls_to_the_recomputed_digest(self):
        old = _db(("R", "a", "b"), ("R", "c", "d"), ("S", "e"))
        digest = InstanceDigest.of_database(old)
        added = [Fact("R", ("x", "y"))]
        removed = [Fact("S", ("e",))]
        digest.update(added, removed)
        new = Database((old.facts - set(removed)) | set(added))
        assert digest.hexdigest() == database_digest(new)

    def test_content_changes_change_the_digest(self):
        base = _db(("R", "a", "b"))
        assert database_digest(base) != database_digest(_db(("R", "a", "c")))
        assert database_digest(base) != database_digest(_db(("S", "a", "b")))
        # Value-boundary trickery must not collide either.
        assert database_digest(_db(("R", "ab", "c"))) != database_digest(
            _db(("R", "a", "bc"))
        )


class TestDependencyRelations:
    def test_cq_footprint(self):
        query = parse_cq("Q(x) :- R(x, y), S(y)")
        assert query_relations(query) == frozenset({"R", "S"})
        assert dependency_relations(query) == frozenset({"R", "S"})

    def test_conjunctive_fo_footprint(self):
        query = parse_query("Q(x) :- R(x, y) and S(y)")
        assert isinstance(query, ConjunctiveQuery)
        assert dependency_relations(query) == frozenset({"R", "S"})

    def test_negation_has_no_sound_footprint(self):
        query = parse_query("Q(x) :- R(x, y) and not S(y)")
        assert query_relations(query) == frozenset({"R", "S"})
        assert dependency_relations(query) is None

    def test_head_variable_in_no_atom_has_no_sound_footprint(self):
        # y ranges over dom(D), which a delta on any relation changes.
        query = parse_query("Q(x, y) :- R(x, z)")
        assert query_relations(query) == frozenset({"R"})
        assert type(query) is Query
        assert dependency_relations(query) is None


class TestUpdateReport:
    def test_from_groups_diffs_group_keys(self):
        a, b = Fact("R", ("a",)), Fact("R", ("b",))
        c, d = Fact("S", ("c",)), Fact("S", ("d",))
        stable = frozenset({c, d})
        report = UpdateReport.from_groups(
            added=[b],
            removed=[],
            old_groups=[frozenset({a}), stable],
            new_groups=[frozenset({a, b}), stable],
            old_digest="old",
            new_digest="new",
        )
        assert report.touched_relations == frozenset({"R"})
        assert set(report.touched_groups) == {
            group_key(frozenset({a})),
            group_key(frozenset({a, b})),
        }
        assert report.touched_group_relations == frozenset({"R"})
        assert report.unsafe_relations == frozenset({"R"})

    def test_group_spanning_relations_are_unsafe(self):
        r, s = Fact("R", ("a",)), Fact("S", ("a",))
        report = UpdateReport.from_groups(
            added=[],
            removed=[s],
            old_groups=[frozenset({r, s})],
            new_groups=[],
        )
        # The delta named only S, but the dissolved group spanned R too.
        assert report.touched_relations == frozenset({"S"})
        assert report.unsafe_relations == frozenset({"R", "S"})


def _key(digest="d0", query="q0", runs=None, seed=7):
    return CacheKey(
        instance_digest=digest,
        constraint_fingerprint="c0",
        query_identity=query,
        seed=seed,
        runs=runs,
    )


def _body(tag="x"):
    return {"ok": True, "frequencies": [[[tag], 0.5]], "runs": 100}


def _report(old="d0", new="d1", relations=("R",)):
    return UpdateReport(
        added=(),
        removed=(),
        touched_relations=frozenset(relations),
        touched_groups=("g",),
        touched_group_relations=frozenset(),
        old_digest=old,
        new_digest=new,
    )


class TestResultCacheBasics:
    def test_exact_hit_roundtrip(self):
        cache = ResultCache(8, name="t-exact")
        key = _key()
        assert cache.get(key, 0.1, 0.1) is None
        cache.put(key, 0.1, 0.1, draws=100, relations=frozenset({"R"}), body=_body())
        hit = cache.get(key, 0.1, 0.1)
        assert hit is not None and hit.exact
        assert hit.body == _body()
        assert hit.draws == 100
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_hit_bodies_are_isolated_copies(self):
        cache = ResultCache(8, name="t-copy")
        key = _key()
        body = _body()
        cache.put(key, 0.1, 0.1, draws=10, relations=None, body=body)
        body["frequencies"].append("mutated upstream")
        first = cache.get(key, 0.1, 0.1)
        first.body["frequencies"].append("mutated downstream")
        second = cache.get(key, 0.1, 0.1)
        assert second.body == _body()

    def test_bodies_come_back_as_json_values(self):
        """A body is stored once as its JSON text, so a hit returns the
        JSON form of what was put: tuples come back as lists."""
        cache = ResultCache(8, name="t-json")
        key = _key()
        body = {"ok": True, "frequencies": [(("a", 1), 0.5)], "seed": None}
        cache.put(key, 0.1, 0.1, draws=10, relations=None, body=body)
        assert cache.get(key, 0.1, 0.1).body == {
            "ok": True,
            "frequencies": [[["a", 1], 0.5]],
            "seed": None,
        }

    def test_put_refuses_a_body_that_is_not_json(self):
        """A body with a non-JSON value fails at ``put`` and leaves no
        entry behind."""
        cache = ResultCache(8, name="t-not-json")
        with pytest.raises(TypeError):
            cache.put(
                _key(), 0.1, 0.1, draws=10, relations=None,
                body={"ok": True, "rows": {("a",)}},
            )
        assert len(cache) == 0
        assert cache.get(_key(), 0.1, 0.1) is None

    def test_distinct_keys_do_not_alias(self):
        cache = ResultCache(8, name="t-alias")
        cache.put(_key(query="q0"), 0.1, 0.1, draws=10, relations=None, body=_body("a"))
        assert cache.get(_key(query="q1"), 0.1, 0.1) is None
        assert cache.get(_key(digest="other"), 0.1, 0.1) is None
        assert cache.get(_key(seed=8), 0.1, 0.1) is None
        assert cache.get(_key(runs=50), 0.1, 0.1) is None

    def test_lru_eviction_order(self):
        cache = ResultCache(2, name="t-lru")
        keys = [_key(query=f"q{i}") for i in range(3)]
        cache.put(keys[0], 0.1, 0.1, draws=1, relations=None, body=_body("0"))
        cache.put(keys[1], 0.1, 0.1, draws=1, relations=None, body=_body("1"))
        assert cache.get(keys[0], 0.1, 0.1) is not None  # refresh 0
        cache.put(keys[2], 0.1, 0.1, draws=1, relations=None, body=_body("2"))
        assert len(cache) == 2
        assert cache.get(keys[1], 0.1, 0.1) is None  # 1 was the LRU victim
        assert cache.get(keys[0], 0.1, 0.1) is not None
        assert cache.get(keys[2], 0.1, 0.1) is not None
        assert cache.stats()["evictions"] == 1

    def test_replace_refreshes_in_place(self):
        cache = ResultCache(8, name="t-replace")
        key = _key()
        cache.put(key, 0.1, 0.1, draws=1, relations=None, body=_body("old"))
        cache.put(key, 0.1, 0.1, draws=2, relations=None, body=_body("new"))
        assert len(cache) == 1
        assert cache.get(key, 0.1, 0.1).body == _body("new")
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry_uses_the_injected_clock(self):
        now = [0.0]
        cache = ResultCache(8, ttl=10.0, name="t-ttl", clock=lambda: now[0])
        key = _key()
        cache.put(key, 0.1, 0.1, draws=1, relations=None, body=_body())
        now[0] = 9.0
        assert cache.get(key, 0.1, 0.1) is not None
        now[0] = 11.0
        assert cache.get(key, 0.1, 0.1) is None
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ResultCache(0)
        with pytest.raises(ValueError):
            ResultCache(4, ttl=0.0)


class TestWeakerHitRule:
    def test_stronger_entry_serves_weaker_request(self):
        cache = ResultCache(8, name="t-weak")
        key = _key(runs=None)
        cache.put(key, 0.05, 0.05, draws=1000, relations=None, body=_body())
        hit = cache.get(key, 0.2, 0.2)
        assert hit is not None and not hit.exact
        assert hit.epsilon == 0.05 and hit.delta == 0.05

    def test_draw_count_certifies_via_hoeffding_inversion(self):
        cache = ResultCache(8, name="t-hoeffding")
        key = _key(runs=None)
        # Stored at (0.05, 0.05): neither component dominates a request
        # for (0.045, 0.2) — but 1000 draws certify it.
        cache.put(key, 0.05, 0.05, draws=1000, relations=None, body=_body())
        assert widened_epsilon(1000, 0.2) <= 0.045
        assert cache.get(key, 0.045, 0.2) is not None

    def test_weaker_entry_never_serves_stronger_request(self):
        cache = ResultCache(8, name="t-strong")
        key = _key(runs=None)
        cache.put(key, 0.2, 0.2, draws=20, relations=None, body=_body())
        assert widened_epsilon(20, 0.05) > 0.05
        assert cache.get(key, 0.05, 0.05) is None

    def test_fixed_runs_serve_any_level_exactly(self):
        cache = ResultCache(8, name="t-runs")
        key = _key(runs=50)
        cache.put(key, 0.3, 0.3, draws=50, relations=None, body=_body())
        hit = cache.get(key, 0.01, 0.01)
        assert hit is not None and hit.exact


class TestInvalidation:
    def test_touched_footprint_invalidates(self):
        cache = ResultCache(8, name="t-inv")
        key = _key(digest="d0")
        cache.put(key, 0.1, 0.1, draws=1, relations=frozenset({"R"}), body=_body())
        outcome = cache.apply_update(_report(relations=("R",)))
        assert outcome == {"invalidated": 1, "migrated": 0, "flushed": 0}
        assert cache.get(key, 0.1, 0.1) is None
        assert cache.stats()["invalidations"] == 1

    def test_disjoint_footprint_migrates_to_new_digest(self):
        cache = ResultCache(8, name="t-mig")
        old_key = _key(digest="d0")
        cache.put(old_key, 0.1, 0.1, draws=1, relations=frozenset({"S"}), body=_body())
        outcome = cache.apply_update(_report(relations=("R",)))
        assert outcome == {"invalidated": 0, "migrated": 1, "flushed": 0}
        # The entry now answers under the post-update digest only.
        assert cache.get(_key(digest="d1"), 0.1, 0.1) is not None
        assert cache.get(old_key, 0.1, 0.1) is None
        assert cache.stats()["migrations"] == 1

    def test_migrated_entries_keep_their_body(self):
        cache = ResultCache(8, name="t-mig-body")
        cache.put(
            _key(digest="d0"), 0.1, 0.1, draws=1,
            relations=frozenset({"S"}), body=_body("kept"),
        )
        cache.apply_update(_report(relations=("R",)))
        first = cache.get(_key(digest="d1"), 0.1, 0.1)
        assert first.body == _body("kept")
        first.body["frequencies"].clear()
        assert cache.get(_key(digest="d1"), 0.1, 0.1).body == _body("kept")

    def test_unknown_footprint_is_conservatively_invalidated(self):
        cache = ResultCache(8, name="t-none")
        cache.put(_key(digest="d0"), 0.1, 0.1, draws=1, relations=None, body=_body())
        outcome = cache.apply_update(_report(relations=("Unrelated",)))
        assert outcome["invalidated"] == 1 and outcome["migrated"] == 0

    def test_group_relations_count_as_unsafe(self):
        cache = ResultCache(8, name="t-group")
        cache.put(
            _key(digest="d0"), 0.1, 0.1, draws=1,
            relations=frozenset({"S"}), body=_body(),
        )
        report = UpdateReport(
            added=(),
            removed=(),
            touched_relations=frozenset({"R"}),
            touched_groups=("g",),
            touched_group_relations=frozenset({"S"}),
            old_digest="d0",
            new_digest="d1",
        )
        assert cache.apply_update(report)["invalidated"] == 1

    def test_missing_digests_flush_everything(self):
        cache = ResultCache(8, name="t-flush")
        for i in range(3):
            cache.put(
                _key(digest=f"d{i}", query=f"q{i}"), 0.1, 0.1,
                draws=1, relations=frozenset({"Z"}), body=_body(),
            )
        report = UpdateReport(
            added=(),
            removed=(),
            touched_relations=frozenset({"R"}),
            touched_groups=(),
            touched_group_relations=frozenset(),
        )
        outcome = cache.apply_update(report)
        assert outcome["flushed"] == 3
        assert len(cache) == 0

    def test_identity_update_is_a_noop(self):
        cache = ResultCache(8, name="t-noop")
        cache.put(_key(digest="d0"), 0.1, 0.1, draws=1, relations=None, body=_body())
        outcome = cache.apply_update(_report(old="d0", new="d0"))
        assert outcome == {"invalidated": 0, "migrated": 0, "flushed": 0}
        assert len(cache) == 1

    def test_other_digests_are_untouched(self):
        cache = ResultCache(8, name="t-other")
        cache.put(
            _key(digest="other"), 0.1, 0.1, draws=1,
            relations=frozenset({"R"}), body=_body(),
        )
        outcome = cache.apply_update(_report(old="d0", new="d1", relations=("R",)))
        assert outcome == {"invalidated": 0, "migrated": 0, "flushed": 0}
        assert cache.get(_key(digest="other"), 0.1, 0.1) is not None

    def test_flush_reports_count(self):
        cache = ResultCache(8, name="t-explicit-flush")
        cache.put(_key(), 0.1, 0.1, draws=1, relations=None, body=_body())
        assert cache.flush() == 1
        assert len(cache) == 0
        assert cache.stats()["flushes"] == 1


class TestRequestCacheKey:
    CONSTRAINTS_TEXT = "R(x, y), R(x, z) -> y = z"

    def _constraints(self):
        from repro.constraints import ConstraintSet
        from repro.constraints.parser import parse_constraints

        return ConstraintSet(parse_constraints(self.CONSTRAINTS_TEXT))

    def test_semantic_keying(self):
        db = _db(("R", "a", "b"), ("R", "a", "c"))
        constraints = self._constraints()
        query = parse_query("Q(x) :- R(x, y)")
        key = request_cache_key(db, constraints, query, seed=7, runs=20)
        again = request_cache_key(db, constraints, query, seed=7, runs=20)
        assert key == again
        other_db = _db(("R", "a", "b"))
        assert request_cache_key(other_db, constraints, query, seed=7, runs=20) != key
        other_query = parse_query("Q(y) :- R(x, y)")
        assert (
            request_cache_key(db, constraints, other_query, seed=7, runs=20) != key
        )
        assert request_cache_key(db, constraints, query, seed=8, runs=20) != key

    def test_key_digest_matches_database_digest(self):
        db = _db(("R", "a", "b"))
        key = request_cache_key(db, self._constraints(), parse_query("Q(x) :- R(x, y)"))
        assert key.instance_digest == database_digest(db)


class TestThreadSafety:
    def test_concurrent_hammer_stays_consistent(self):
        cache = ResultCache(16, name="t-threads")
        errors = []
        barrier = threading.Barrier(4)

        def worker(worker_id):
            rng = random.Random(worker_id)
            try:
                barrier.wait()
                for i in range(300):
                    key = _key(digest=f"d{rng.randint(0, 3)}", query=f"q{rng.randint(0, 7)}")
                    op = rng.random()
                    if op < 0.4:
                        cache.put(
                            key, 0.1, 0.1, draws=i,
                            relations=frozenset({"R"}), body=_body(str(i)),
                        )
                    elif op < 0.8:
                        cache.get(key, 0.1, 0.1)
                    elif op < 0.9:
                        cache.apply_update(
                            _report(old=f"d{rng.randint(0, 3)}", new=f"d{rng.randint(0, 3)}")
                        )
                    else:
                        cache.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0
        # The debug view walks the same structures without blowing up.
        assert all("key" in row for row in cache.entries())
