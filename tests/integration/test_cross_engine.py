"""Integration tests: exact vs sampled, memory vs SQL, full pipelines."""

import random
from fractions import Fraction

import pytest

from repro import (
    ConstraintSet,
    Database,
    Fact,
    TrustGenerator,
    UniformGenerator,
    approximate_oca,
    exact_oca,
    key,
    repair_distribution,
)
from repro.abc_repairs import abc_repairs
from repro.analysis import max_absolute_error
from repro.core.generators import PreferenceGenerator
from repro.db.schema import Schema
from repro.queries.parser import parse_cq
from repro.sql.backend import SQLiteBackend
from repro.sql.compiler import compile_cq, compile_fo_query
from repro.sql.sampler import KeyRepairSampler, KeySpec, SamplerPolicy
from repro.workloads import (
    integration_workload,
    key_conflict_workload,
    preference_workload,
)

from tests.first_order import first_order


class TestExactVsSampled:
    """Theorem 9 in practice: the sampler tracks the exact CP."""

    def test_preference_scenario(self, paper_pref_db, pref_sigma, rng):
        gen = PreferenceGenerator(pref_sigma)
        q = parse_cq("Q(x, y) :- Pref(x, y)")
        exact = exact_oca(paper_pref_db, gen, q).as_dict()
        approx = approximate_oca(
            paper_pref_db, gen, q, epsilon=0.07, delta=0.02, rng=rng
        )
        assert max_absolute_error(exact, approx) <= 0.07

    def test_trust_scenario(self, rng):
        wl = integration_workload(
            keys=6, sources=[("good", 0.8), ("bad", 0.3)], conflict_rate=0.6, seed=5
        )
        gen = TrustGenerator(wl.constraints, wl.trust)
        q = parse_cq("Q(k) :- R(k, v)")
        exact = exact_oca(wl.database, gen, q).as_dict()
        approx = approximate_oca(wl.database, gen, q, epsilon=0.08, delta=0.02, rng=rng)
        assert max_absolute_error(exact, approx) <= 0.08


class TestMemoryVsSQL:
    """The SQL scheme agrees with the in-memory chain on key constraints."""

    def test_operational_uniform_matches_uniform_chain(self, rng):
        wl = key_conflict_workload(clean_rows=6, conflict_groups=2, group_size=2, seed=2)
        # in-memory exact
        gen = UniformGenerator(wl.constraints)
        q = parse_cq("Q(x) :- R(x, y, z)")
        exact = exact_oca(wl.database, gen, q).as_dict()
        # SQL sampling with per-group chains
        backend = SQLiteBackend()
        backend.load(wl.database, wl.schema)
        sampler = KeyRepairSampler(
            backend,
            wl.schema,
            [wl.key_spec],
            policy=SamplerPolicy.OPERATIONAL_UNIFORM,
            rng=rng,
        )
        report = sampler.run(q, epsilon=0.07, delta=0.02)
        assert max_absolute_error(exact, report.frequencies) <= 0.07
        backend.close()

    def test_trust_policy_matches_trust_chain(self, rng):
        wl = integration_workload(
            keys=5, sources=[("s1", 0.9), ("s2", 0.2)], conflict_rate=0.8, seed=9
        )
        gen = TrustGenerator(wl.constraints, wl.trust)
        q = parse_cq("Q(k, v) :- R(k, v)")
        exact = exact_oca(wl.database, gen, q).as_dict()
        backend = SQLiteBackend()
        backend.load(wl.database, Schema.of(R=2))
        sampler = KeyRepairSampler(
            backend,
            Schema.of(R=2),
            [KeySpec("R", 2, (0,))],
            policy=SamplerPolicy.TRUST,
            trust=wl.trust,
            rng=rng,
        )
        report = sampler.run(q, epsilon=0.08, delta=0.02)
        assert max_absolute_error(exact, report.frequencies) <= 0.08
        backend.close()

    def test_fo_queries_agree_between_engines(self):
        db, sigma = preference_workload(products=5, edges=4, conflicts=1, seed=3)
        backend = SQLiteBackend()
        backend.load(db, Schema.of(Pref=2))
        for text in [
            "Q(x) :- exists y Pref(x, y)",
            "Q(x) :- forall y (Pref(x, y) | x = y)",
            "Q(x, y) :- Pref(x, y) & !Pref(y, x)",
        ]:
            q = first_order(text)
            compiled = compile_fo_query(q, schema=Schema.of(Pref=2))
            assert compiled.run(backend) == q.answers(db), text
        backend.close()


class TestOperationalVsABC:
    """Proposition 4 end-to-end on several workloads."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_abc_repairs_are_operational(self, seed):
        db, sigma = preference_workload(products=5, edges=3, conflicts=2, seed=seed)
        classical = abc_repairs(db, sigma)
        dist = repair_distribution(db, UniformGenerator(sigma))
        assert classical <= dist.support

    def test_uniform_distribution_dominates_abc_certain_answers(self):
        from repro.abc_repairs import certain_answers

        db = Database.of(
            Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("k", "v"))
        )
        sigma = ConstraintSet(key("R", 2, [0]))
        q = parse_cq("Q(x) :- R(x, y)")
        certain = certain_answers(db, sigma, q)
        result = exact_oca(db, UniformGenerator(sigma), q)
        # every ABC-certain tuple has positive operational probability
        for answer in certain:
            assert result.cp(answer) > 0


class TestEndToEndPipeline:
    def test_json_to_answer(self, tmp_path, rng):
        """Load from disk, repair, answer, approximate — full pipeline."""
        from repro.io import load_constraints, load_database, save_constraints, save_database

        db, sigma = preference_workload(products=4, edges=2, conflicts=1, seed=8)
        save_database(db, tmp_path / "db.json")
        save_constraints(sigma, tmp_path / "sigma.txt")
        db2 = load_database(tmp_path / "db.json")
        sigma2 = load_constraints(tmp_path / "sigma.txt")
        assert db2 == db and sigma2 == sigma
        gen = UniformGenerator(sigma2)
        q = parse_cq("Q(x, y) :- Pref(x, y)")
        exact = exact_oca(db2, gen, q).as_dict()
        approx = approximate_oca(db2, gen, q, epsilon=0.1, delta=0.05, rng=rng)
        assert max_absolute_error(exact, approx) <= 0.1
