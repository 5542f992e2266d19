"""Unit tests for the deletion rewriting and the SQL key-repair sampler."""

import random
from fractions import Fraction

import pytest

from repro.constraints import ConstraintSet, key, parse_constraints
from repro.core.generators import TrustGenerator, UniformGenerator
from repro.core.oca import exact_oca
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries.parser import parse_cq, parse_query
from repro.sql.backend import SQLiteBackend
from repro.sql.rewriting import DeletionRewriter
from repro.sql.sampler import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    KeySpec,
    SamplerPolicy,
)

from tests.first_order import first_order

R_AB = Fact("R", ("a", "b"))
R_AC = Fact("R", ("a", "c"))
R_KV = Fact("R", ("k", "v"))


@pytest.fixture
def db():
    return Database.of(R_AB, R_AC, R_KV)


@pytest.fixture
def backend(db):
    be = SQLiteBackend()
    be.load(db)
    yield be
    be.close()


class TestDeletionRewriter:
    def test_live_database_tracks_deletions(self, backend, db):
        rewriter = DeletionRewriter(backend, Schema.of(R=2))
        assert rewriter.live_database() == db
        rewriter.mark_deleted([R_AB])
        assert rewriter.live_database() == db - {R_AB}
        rewriter.clear()
        assert rewriter.live_database() == db

    def test_relation_map_excludes_deleted(self, backend):
        rewriter = DeletionRewriter(backend, Schema.of(R=2))
        rewriter.mark_deleted([R_AB])
        cq = parse_cq("Q(x, y) :- R(x, y)")
        from repro.sql.compiler import compile_cq

        answers = compile_cq(cq, rewriter.relation_map()).run(backend)
        assert answers == {("a", "c"), ("k", "v")}

    def test_deleted_count(self, backend):
        rewriter = DeletionRewriter(backend, Schema.of(R=2))
        rewriter.mark_deleted([R_AB, R_AC])
        assert rewriter.deleted_count("R") == 2

    def test_original_table_untouched(self, backend):
        rewriter = DeletionRewriter(backend, Schema.of(R=2))
        rewriter.mark_deleted([R_AB])
        assert backend.table_count("R") == 3


class TestConflictDetection:
    def test_groups_found(self, backend):
        sampler = KeyRepairSampler(
            backend, Schema.of(R=2), [KeySpec("R", 2, (0,))]
        )
        assert sampler.components == (frozenset({R_AB, R_AC}),)

    def test_clean_table_no_groups(self):
        db = Database.of(R_AB, R_KV)
        with SQLiteBackend() as be:
            be.load(db)
            sampler = KeyRepairSampler(be, Schema.of(R=2), [KeySpec("R", 2, (0,))])
            assert sampler.components == ()


#: Keys on both columns of ``R/2``: the four facts form one chain of
#: overlapping key groups, ``(a1,b1)-(a1,b2)-(a2,b2)-(a2,b3)``.
_CHAIN = [
    Fact("R", values)
    for values in (("a1", "b1"), ("a1", "b2"), ("a2", "b2"), ("a2", "b3"))
]
_BOTH_KEYS = [KeySpec("R", 2, (0,)), KeySpec("R", 2, (1,))]


class TestOverlappingKeys:
    def test_operational_uniform_matches_exact_cp(self):
        """Overlapping key groups form one component, so the sampler
        walks one chain over all four facts instead of two independent
        per-key chains (which estimated CP(a1, b1) at about 1/3)."""
        sigma = ConstraintSet(c for spec in _BOTH_KEYS for c in spec.constraints())
        query = parse_cq("Q(x, y) :- R(x, y)")
        exact = exact_oca(Database(_CHAIN), UniformGenerator(sigma), query)
        assert exact.cp(("a1", "b1")) == exact.cp(("a2", "b3")) == Fraction(47, 105)
        assert exact.cp(("a1", "b2")) == exact.cp(("a2", "b2")) == Fraction(19, 105)
        with SQLiteBackend() as be:
            be.load(Database(_CHAIN))
            sampler = KeyRepairSampler(
                be,
                Schema.of(R=2),
                _BOTH_KEYS,
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(5),
            )
            report = sampler.run(query, epsilon=0.05, delta=0.01)
            for fact in _CHAIN:
                estimate = report.cp(fact.values)
                assert abs(estimate - float(exact.cp(fact.values))) <= 0.05
            assert sampler.components == (frozenset(_CHAIN),)

    def test_keep_one_rejects_two_keys_on_one_relation(self, backend):
        with pytest.raises(ValueError, match="one key per relation"):
            KeyRepairSampler(
                backend,
                Schema.of(R=2),
                _BOTH_KEYS,
                policy=SamplerPolicy.KEEP_ONE_UNIFORM,
            )

    def test_keep_one_takes_one_key_per_relation(self):
        db = Database.of(R_AB, R_AC, Fact("S", ("a", "b")), Fact("S", ("a", "c")))
        with SQLiteBackend() as be:
            be.load(db)
            sampler = KeyRepairSampler(
                be,
                Schema.of(R=2, S=2),
                [KeySpec("R", 2, (0,)), KeySpec("S", 2, (0,))],
                policy=SamplerPolicy.KEEP_ONE_UNIFORM,
                rng=random.Random(2),
            )
            assert len(sampler.components) == 2
            for _ in range(10):
                repair = sampler.sample_repair()
                assert len(repair) == 2
                assert {fact.relation for fact in repair} == {"R", "S"}


class TestTrustValidation:
    def test_out_of_range_trust_is_refused_at_construction(self, backend):
        with pytest.raises(ValueError, match=r"must be within \[0, 1\]"):
            KeyRepairSampler(
                backend,
                Schema.of(R=2),
                [KeySpec("R", 2, (0,))],
                policy=SamplerPolicy.TRUST,
                trust={R_AB: 4},
            )


class TestPolicies:
    def test_keep_one_always_keeps_exactly_one(self, backend):
        sampler = KeyRepairSampler(
            backend,
            Schema.of(R=2),
            [KeySpec("R", 2, (0,))],
            policy=SamplerPolicy.KEEP_ONE_UNIFORM,
            rng=random.Random(3),
        )
        for _ in range(20):
            repair = sampler.sample_repair()
            a_tuples = [f for f in repair if f.values[0] == "a"]
            assert len(a_tuples) == 1
            assert R_KV in repair

    def test_operational_uniform_can_drop_both(self, backend):
        sampler = KeyRepairSampler(
            backend,
            Schema.of(R=2),
            [KeySpec("R", 2, (0,))],
            policy=SamplerPolicy.OPERATIONAL_UNIFORM,
            rng=random.Random(3),
        )
        sizes = set()
        for _ in range(60):
            repair = sampler.sample_repair()
            sizes.add(len([f for f in repair if f.values[0] == "a"]))
        assert sizes == {0, 1}  # remove-one and remove-both both occur

    def test_trust_policy_prefers_trusted_fact(self, backend, rng):
        sampler = KeyRepairSampler(
            backend,
            Schema.of(R=2),
            [KeySpec("R", 2, (0,))],
            policy=SamplerPolicy.TRUST,
            trust={R_AB: 0.95, R_AC: 0.05},
            rng=rng,
        )
        kept_ab = sum(R_AB in sampler.sample_repair() for _ in range(80))
        kept_ac = sum(R_AC in sampler.sample_repair() for _ in range(80))
        assert kept_ab > kept_ac

    def test_repairs_always_satisfy_key(self, backend, rng):
        sigma = ConstraintSet(key("R", 2, [0]))
        for policy in SamplerPolicy:
            sampler = KeyRepairSampler(
                backend,
                Schema.of(R=2),
                [KeySpec("R", 2, (0,))],
                policy=policy,
                trust={R_AB: 0.5, R_AC: 0.5},
                rng=rng,
            )
            for _ in range(10):
                assert sigma.is_satisfied(sampler.sample_repair())


class TestSamplingCampaign:
    def test_frequencies_match_exact_cp(self, backend, db):
        """Operational-uniform SQL sampling approximates the exact
        in-memory chain CP (repair localization is exact for keys)."""
        sampler = KeyRepairSampler(
            backend,
            Schema.of(R=2),
            [KeySpec("R", 2, (0,))],
            policy=SamplerPolicy.OPERATIONAL_UNIFORM,
            rng=random.Random(11),
        )
        cq = parse_cq("Q(x) :- R(x, y)")
        report = sampler.run(cq, epsilon=0.08, delta=0.05)
        sigma = ConstraintSet(key("R", 2, [0]))
        exact = exact_oca(db, UniformGenerator(sigma), cq)
        assert abs(report.cp(("a",)) - float(exact.cp(("a",)))) <= 0.08
        assert report.cp(("k",)) == 1.0

    def test_run_count_default_is_hoeffding(self, backend):
        sampler = KeyRepairSampler(
            backend, Schema.of(R=2), [KeySpec("R", 2, (0,))], rng=random.Random(1)
        )
        report = sampler.run(parse_cq("Q(x) :- R(x, y)"), epsilon=0.1, delta=0.1)
        assert report.runs == 150

    def test_explicit_runs(self, backend):
        sampler = KeyRepairSampler(
            backend, Schema.of(R=2), [KeySpec("R", 2, (0,))], rng=random.Random(1)
        )
        report = sampler.run(parse_cq("Q(x) :- R(x, y)"), runs=10)
        assert report.runs == 10

    def test_fo_query_supported(self, backend):
        sampler = KeyRepairSampler(
            backend, Schema.of(R=2), [KeySpec("R", 2, (0,))], rng=random.Random(1)
        )
        q = first_order("Q(x) :- exists y R(x, y)")
        report = sampler.run(q, runs=20)
        assert report.cp(("k",)) == 1.0

    def test_report_items_sorted(self, backend):
        sampler = KeyRepairSampler(
            backend, Schema.of(R=2), [KeySpec("R", 2, (0,))], rng=random.Random(1)
        )
        report = sampler.run(parse_cq("Q(x) :- R(x, y)"), runs=40)
        values = [v for _, v in report.items()]
        assert values == sorted(values, reverse=True)


class TestLiveDomain:
    """Domain-dependent queries range over each sampled repair's own
    domain, as ``Query.answers`` and ``exact_oca`` do."""

    DB = Database.of(R_AB, R_AC, Fact("R", ("d", "e")), Fact("S", ("b",)))
    SCHEMA = Schema.of(R=2, S=1)
    SIGMA = ConstraintSet(key("R", 2, [0]))
    QUERY = parse_query("Q(x) :- !S(x)")

    def _sampler(self, database, seed=5):
        backend = SQLiteBackend()
        backend.load(database, self.SCHEMA)
        return backend, ConstraintRepairSampler(
            backend, self.SCHEMA, self.SIGMA, rng=random.Random(seed)
        )

    def test_negation_lands_within_epsilon_of_exact(self):
        backend, sampler = self._sampler(self.DB)
        try:
            report = sampler.run(self.QUERY, epsilon=0.1, delta=0.05)
        finally:
            backend.close()
        exact = exact_oca(self.DB, UniformGenerator(self.SIGMA), self.QUERY)
        assert exact.cp(("a",)) == Fraction(2, 3)
        assert exact.cp(("c",)) == Fraction(1, 3)
        candidates = set(report.frequencies) | {("a",), ("c",), ("d",), ("e",)}
        for candidate in candidates:
            assert abs(report.cp(candidate) - float(exact.cp(candidate))) <= 0.1

    def test_update_removal_equals_fresh_sampler(self):
        removed = Fact("R", ("d", "e"))
        backend, updated = self._sampler(self.DB)
        fresh_backend, fresh = self._sampler(self.DB - {removed})
        try:
            updated.apply_update(removed=[removed])
            after = updated.run(self.QUERY, runs=60)
            expected = fresh.run(self.QUERY, runs=60)
        finally:
            backend.close()
            fresh_backend.close()
        assert after.frequencies == expected.frequencies
        assert ("d",) not in after.frequencies


class TestLoweredQueries:
    """``parse_query`` hands the sampler a CQ for every conjunctive text."""

    SIGMA = ConstraintSet(key("R", 2, [0]))

    def test_conjunctive_text_compiles_to_one_flat_join(self, backend):
        sampler = ConstraintRepairSampler(backend, Schema.of(R=2), self.SIGMA)
        compiled = sampler.compile(parse_query("Q(x) :- R(x, y)"))
        assert "_live_dom" not in compiled.sql and "EXISTS" not in compiled.sql
        # The same query built by hand stays first-order.
        reference = sampler.compile(first_order("Q(x) :- R(x, y)"))
        assert "_live_dom" in reference.sql

    def test_single_atom_text_draws_columnar(self, backend, monkeypatch):
        """Forces each path, so it also runs where ``REPRO_COLUMNAR=0``
        is set for the whole suite."""
        from repro.obs.metrics import REGISTRY

        ranges = REGISTRY.get("ocqa_draw_ranges_total")
        events = REGISTRY.get("ocqa_columnar_events_total")
        frequencies, columnar_ranges, tabled = {}, {}, {}
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_COLUMNAR", flag)
            before = ranges.value(path="columnar")
            tabled_before = events.value(stat="draws_table")
            sampler = ConstraintRepairSampler(
                backend, Schema.of(R=2), self.SIGMA, rng=random.Random(3)
            )
            report = sampler.run(parse_query("Q(x) :- R(x, y)"), runs=40)
            frequencies[flag] = report.frequencies
            columnar_ranges[flag] = ranges.value(path="columnar") - before
            tabled[flag] = events.value(stat="draws_table") - tabled_before
        assert columnar_ranges["1"] > 0 and columnar_ranges["0"] == 0
        assert frequencies["1"] == frequencies["0"]
        # One component x 40 draws, each read off its walk table; the
        # reference walk reads none.
        assert tabled == {"1": 40, "0": 0}

    def test_join_draws_from_walk_tables(self, backend, monkeypatch):
        """A join's draws are answered from its witnesses with no SQL
        (``path="columnar"``), a first-order negation's are evaluated by
        per-draw SQL (``path="table"``), and only ``REPRO_COLUMNAR=0``
        walks the chains (``path="object"``)."""
        from repro.obs.metrics import REGISTRY

        ranges = REGISTRY.get("ocqa_draw_ranges_total")
        paths = ("columnar", "table", "object")
        queries = {
            "columnar": parse_query("Q(x, z) :- R(x, y) & R(z, y)"),
            "table": parse_query("Q(x) :- R(x, y) & !R(y, x)"),
        }
        frequencies, counted = {}, {}
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_COLUMNAR", flag)
            for route, query in queries.items():
                before = {path: ranges.value(path=path) for path in paths}
                sampler = ConstraintRepairSampler(
                    backend, Schema.of(R=2), self.SIGMA, rng=random.Random(3)
                )
                report = sampler.run(query, runs=40)
                frequencies[flag, route] = report.frequencies
                counted[flag, route] = {
                    path
                    for path in paths
                    if ranges.value(path=path) > before[path]
                }
        for route in queries:
            assert counted["1", route] == {route}
            assert counted["0", route] == {"object"}
            assert frequencies["1", route] == frequencies["0", route]


class TestPlanGates:
    """Each reason a conjunctive query keeps per-draw SQL counts its own
    ``plan_gated_*`` stat, and the query still answers through SQL.
    Plans need the columnar core, so each test turns it on (the suite
    also runs with ``REPRO_COLUMNAR=0``)."""

    STATS = (
        "plan_gated_first_order",
        "plan_gated_relation_map",
        "plan_gated_unresolved_fact",
        "plan_gated_shared_row",
        "plan_gated_witness_budget",
        "plan_build_errors",
    )

    def _gates(self, sampler, compiled):
        """The stats one plan build raised, after checking the query
        still answers through per-draw SQL."""
        from repro.obs.metrics import REGISTRY

        events = REGISTRY.get("ocqa_columnar_events_total")
        before = {stat: events.value(stat=stat) for stat in self.STATS}
        assert sampler._columnar_outcomes(compiled, 0, 4) is None
        assert sampler.outcomes_for_range(compiled, 0, 4).draws == 4
        return {stat for stat in self.STATS if events.value(stat=stat) > before[stat]}

    def test_first_order_and_foreign_relation_map(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        sampler = ConstraintRepairSampler(
            backend, Schema.of(R=2), ConstraintSet(key("R", 2, [0]))
        )
        hand_built = sampler.compile(first_order("Q(x) :- R(x, y)"))
        assert self._gates(sampler, hand_built) == {"plan_gated_first_order"}
        raw = sampler.compile_original(parse_query("Q(x) :- R(x, y)"))
        assert self._gates(sampler, raw) == {"plan_gated_relation_map"}

    def test_conflict_facts_must_resolve_to_their_own_rows(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        # R(1, a) and R('1', a) violate the FD and print alike.  A row
        # deleted behind the sampler's back leaves its fact unresolved:
        # without ('1', a), R('1', a) matches no row; without (1, a),
        # R(1, a) matches only through its str form, R('1', a)'s row.
        sigma = ConstraintSet(
            parse_constraints("R(x, y), R(z, y) -> x = z")
        )
        facts = [Fact("R", (1, "a")), Fact("R", ("1", "a")), Fact("R", (2, "b"))]
        query = parse_query("Q(x) :- R(x, y)")
        for vanished, gate in (
            (Fact("R", ("1", "a")), "plan_gated_unresolved_fact"),
            (Fact("R", (1, "a")), "plan_gated_shared_row"),
        ):
            with SQLiteBackend() as backend:
                backend.load(Database(facts))
                sampler = ConstraintRepairSampler(backend, Schema.of(R=2), sigma)
                backend.delete_facts([vanished])
                assert self._gates(sampler, sampler.compile(query)) == {gate}


class TestPlannedCampaignIsReadOnly:
    """A planned campaign reads its backend and writes nothing, so one
    warm instance can serve concurrent queries."""

    @pytest.mark.parametrize(
        "text", ["Q(x, z) :- R(x, y) & R(z, y)", "Q(x) :- R(x, y)"]
    )
    def test_only_selects_run(self, backend, monkeypatch, text):
        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        sampler = ConstraintRepairSampler(
            backend, Schema.of(R=2), ConstraintSet(key("R", 2, [0])),
            rng=random.Random(11),
        )
        statements = []
        for name in ("execute", "executemany"):
            run = getattr(backend, name)

            def record(sql, *args, _run=run):
                statements.append(sql)
                return _run(sql, *args)

            monkeypatch.setattr(backend, name, record)
        sampler.run(parse_query(text), runs=40)
        assert statements
        assert [s for s in statements if not s.startswith("SELECT ")] == []
